open Gripps_model
open Gripps_engine
module Pb = Sim.Plan_buf

(* The batch's arrivals, in event order. *)
let iter_arrivals st f =
  for i = 0 to Sim.Events.count st - 1 do
    match Sim.Events.kind st i with
    | `Arrival -> f (Sim.Events.subject st i)
    | `Completion | `Boundary | `Failure | `Recovery -> ()
  done

(* ------------------------------------------------------------------ *)
(* MCT: one FIFO queue per machine, no preemption, no divisibility.    *)
(* ------------------------------------------------------------------ *)

let mct =
  { Sim.fname = "MCT";
    fmake =
      (fun inst ->
        let platform = Instance.platform inst in
        let nm = Platform.num_machines platform in
        let queues = Array.make nm [] in
        (* Estimated completion of machine [m]'s whole queue. *)
        let queue_clear_time st m =
          let speed = (Platform.machine platform m).Machine.speed in
          let work =
            List.fold_left
              (fun acc j ->
                if Sim.is_completed st j then acc else acc +. Sim.remaining st j)
              0.0 queues.(m)
          in
          Sim.now st +. (work /. speed)
        in
        let place st j =
          let db = Instance.databank inst j in
          let best = ref None in
          List.iter
            (fun (m : Machine.t) ->
              let eta = queue_clear_time st m.id +. (Instance.size inst j /. m.speed) in
              match !best with
              | Some (_, beta) when beta <= eta -> ()
              | Some _ | None -> best := Some (m.id, eta))
            (Platform.hosts_of platform db);
          match !best with
          | Some (m, _) -> queues.(m) <- queues.(m) @ [ j ]
          | None -> assert false (* Instance.make guarantees a host exists *)
        in
        fun st buf ->
          iter_arrivals st (place st);
          for m = 0 to nm - 1 do
            (* Drop completed prefix, run the head (a down machine's queue
               waits for its repair — MCT never migrates). *)
            queues.(m) <- List.filter (fun j -> not (Sim.is_completed st j)) queues.(m);
            match queues.(m) with
            | j :: _ when Sim.machine_up st m ->
              Pb.begin_machine buf m;
              Pb.push_unit_share buf ~job:j
            | _ :: _ | [] -> ()
          done) }

(* ------------------------------------------------------------------ *)
(* MCT-Div: divisible placement into the earliest idle capacity of all *)
(* capable machines; prior commitments are never modified.             *)
(* ------------------------------------------------------------------ *)

(* Per-machine commitments: disjoint (start, stop, job) triples sorted by
   start time.  Machine m is idle outside its commitments. *)
type commitments = (float * float * int) list array

let busy_at (c : (float * float * int) list) t =
  List.exists (fun (s, e, _) -> s <= t +. 1e-12 && t < e -. 1e-12) c

(* Pour [size] Mflop of job [j] into the idle capacity of [capable]
   machines starting at [t0]; returns the new commitments. *)
let pour (comms : commitments) ~capable ~t0 ~size ~j =
  (* Window boundaries: t0 and every commitment edge after t0. *)
  let edges =
    List.concat_map
      (fun (m : Machine.t) ->
        List.concat_map
          (fun (s, e, _) ->
            List.filter (fun t -> t > t0 +. 1e-12) [ s; e ])
          comms.(m.id))
      capable
    |> List.sort_uniq Float.compare
  in
  let rate_in window_start =
    List.fold_left
      (fun acc (m : Machine.t) ->
        if busy_at comms.(m.id) window_start then acc else acc +. m.speed)
      0.0 capable
  in
  (* Find the completion date t*. *)
  let rec sweep t lo remaining = function
    | [] ->
      let r = rate_in lo in
      (* Past the last edge every capable machine is idle forever. *)
      ignore t;
      lo +. (remaining /. r)
    | e :: rest ->
      let r = rate_in lo in
      let cap = r *. (e -. lo) in
      if cap >= remaining -. 1e-12 && r > 0.0 then lo +. (remaining /. r)
      else sweep t e (remaining -. cap) rest
  in
  let t_star = sweep t0 t0 size edges in
  (* Commit all idle sub-intervals within [t0, t_star]. *)
  let windows =
    let rec build lo = function
      | [] -> if lo < t_star -. 1e-12 then [ (lo, t_star) ] else []
      | e :: rest ->
        if e >= t_star then (if lo < t_star -. 1e-12 then [ (lo, t_star) ] else [])
        else (lo, e) :: build e rest
    in
    build t0 edges
  in
  List.iter
    (fun (m : Machine.t) ->
      let additions =
        List.filter (fun (lo, _) -> not (busy_at comms.(m.id) lo)) windows
        |> List.map (fun (lo, hi) -> (lo, hi, j))
      in
      if additions <> [] then
        comms.(m.id) <-
          List.sort (fun (a, _, _) (b, _, _) -> Float.compare a b)
            (comms.(m.id) @ additions))
    capable;
  t_star

let mct_div =
  { Sim.fname = "MCT-Div";
    fmake =
      (fun inst ->
        let platform = Instance.platform inst in
        let nm = Platform.num_machines platform in
        let comms : commitments = Array.make nm [] in
        fun st buf ->
          iter_arrivals st (fun j ->
              let capable = Platform.hosts_of platform (Instance.databank inst j) in
              ignore
                (pour comms ~capable ~t0:(Sim.now st) ~size:(Instance.size inst j) ~j));
          (* Play back commitments covering the current date. *)
          let t = Sim.now st in
          let next_edge = ref infinity in
          for m = 0 to nm - 1 do
            (* Garbage-collect past commitments. *)
            comms.(m) <- List.filter (fun (_, e, _) -> e > t +. 1e-12) comms.(m);
            List.iter
              (fun (s, e, j) ->
                if s <= t +. 1e-12 then begin
                  if (not (Sim.is_completed st j)) && Sim.machine_up st m then begin
                    Pb.begin_machine buf m;
                    Pb.push_unit_share buf ~job:j
                  end;
                  if e < !next_edge then next_edge := e
                end
                else if s < !next_edge then next_edge := s)
              comms.(m)
          done;
          (* Commitments never account for failures: crashed work or time
             spent down can leave residual work after the plan drains.
             Mop it up with SWRPT list scheduling instead of stalling. *)
          if Pb.is_empty buf && !next_edge = infinity && Sim.active_jobs st <> [] then
            List_sched.resort Priority.swrpt st buf
          else if !next_edge <> infinity then Pb.set_horizon buf !next_edge) }
