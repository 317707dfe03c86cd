open Gripps_model
open Gripps_engine
open Gripps_sched


let arrived_delta inst st =
  let sizes =
    List.filter_map
      (fun jid ->
        if Sim.is_released st jid then Some (Instance.size inst jid)
        else None)
      (List.init (Instance.num_jobs inst) Fun.id)
  in
  match sizes with
  | [] -> 1.0
  | s :: rest ->
    let lo = List.fold_left Float.min s rest in
    let hi = List.fold_left Float.max s rest in
    hi /. lo

let min_arrived_size inst st =
  List.fold_left
    (fun acc jid ->
      if Sim.is_released st jid then Float.min acc (Instance.size inst jid)
      else acc)
    infinity
    (List.init (Instance.num_jobs inst) Fun.id)

let bender98 =
  { Sim.fname = "Bender98";
    fmake =
      (fun inst ->
        let deadlines = Hashtbl.create 64 in
        fun st buf ->
          (* Failures and recoveries don't change the hindsight problem
             (it ignores work performed and machine state), but they do
             invalidate the deadline-driven priorities' assumptions, so
             recompute anyway — it is cheap relative to the
             arrival-driven recomputation. *)
          if Online_lp.needs_replan st then begin
            (* Full hindsight optimum over every job released so far,
               ignoring the work actually performed — the expensive
               recomputation the paper measures in §5.3. *)
            let problem =
              (Snapshot.of_instance ~subset:(fun jid -> Sim.is_released st jid) inst).Snapshot.problem
            in
            (* Guardrail: if the hindsight solve blows its budget, keep
               the previous deadlines — the list scheduler still runs. *)
            (match Stretch_solver.optimal_max_stretch_float problem with
            | s_star ->
              let alpha = sqrt (arrived_delta inst st) in
              Hashtbl.reset deadlines;
              List.iter
                (fun jid ->
                  let d =
                    Instance.release inst jid
                    +. (alpha *. s_star *. Instance.size inst jid)
                  in
                  Hashtbl.replace deadlines jid d)
                (Sim.active_jobs st)
            | exception Stretch_solver.Budget_exhausted _ -> ())
          end;
          let order =
            Sim.active_jobs st
            |> List.map (fun j ->
                   ((Option.value ~default:infinity (Hashtbl.find_opt deadlines j), j), j))
            |> List.sort compare
            |> List.map snd
          in
          List_sched.allocate st ~priority_order:order buf) }

let pseudo_stretch ~delta ~min_size ~size ~release ~now =
  let p = size /. min_size in
  let denom = if p <= sqrt delta then sqrt delta else delta in
  (now -. release) /. denom

let bender02 =
  Sim.flat_stateless "Bender02" (fun st buf ->
      let inst = Sim.instance st in
      let delta = arrived_delta inst st in
      let min_size = min_arrived_size inst st in
      let order =
        Sim.active_jobs st
        |> List.map (fun j ->
               let s =
                 pseudo_stretch ~delta ~min_size ~size:(Instance.size inst j)
                   ~release:(Instance.release inst j) ~now:(Sim.now st)
               in
               (* Decreasing pseudo-stretch: negate for ascending sort. *)
               ((-.s, j), j))
        |> List.sort compare
        |> List.map snd
      in
      List_sched.allocate st ~priority_order:order buf)
