(* Snapshot aggregation and plan realization.

   The key invariant: aggregating machines with identical databank
   signatures into virtual machines of summed speed is EXACT under the
   divisible fluid model — the optimal max-stretch is unchanged, and
   expanded commitments deliver exactly the aggregated work. *)

open Gripps_model
open Gripps_core
module Q = Gripps_numeric.Rat
module S = Stretch_solver

let mk_job ?(id = 0) ?(release = 0.0) ?(size = 1.0) ?(databank = 0) () =
  Job.make ~id ~release ~size ~databank

(* A platform with two pairs of identical machines plus one unique one. *)
let clustered_platform () =
  Platform.make
    ~machines:
      [ Machine.make ~id:0 ~speed:1.0 ~databanks:[| true; false |];
        Machine.make ~id:1 ~speed:2.0 ~databanks:[| true; false |];
        Machine.make ~id:2 ~speed:1.5 ~databanks:[| true; true |];
        Machine.make ~id:3 ~speed:0.5 ~databanks:[| true; true |];
        Machine.make ~id:4 ~speed:3.0 ~databanks:[| false; true |] ]
    ~num_databanks:2

let test_aggregation_structure () =
  let inst =
    Instance.make ~platform:(clustered_platform ())
      ~jobs:[ mk_job ~databank:0 (); mk_job ~id:1 ~databank:1 () ]
  in
  let snap = Snapshot.of_instance inst in
  (* Three signatures: {db0}, {db0,db1}, {db1}. *)
  Alcotest.(check int) "three virtual machines" 3
    (List.length snap.Snapshot.problem.S.machines);
  (* Virtual ids are the smallest member id; speeds are summed. *)
  Alcotest.(check (list int)) "members of v0" [ 0; 1 ] (snap.Snapshot.members 0);
  Alcotest.(check (list int)) "members of v2" [ 2; 3 ] (snap.Snapshot.members 2);
  Alcotest.(check (list int)) "members of v4" [ 4 ] (snap.Snapshot.members 4);
  Alcotest.(check string) "speed of v0" "3" (Q.to_string (snap.Snapshot.vspeed 0));
  Alcotest.(check string) "speed of v2" "2" (Q.to_string (snap.Snapshot.vspeed 2))

(* Unaggregated reference problem built directly from the instance. *)
let raw_problem inst =
  let platform = Instance.platform inst in
  { S.now = Q.zero;
    jobs =
      Array.to_list (Instance.jobs inst)
      |> List.map (fun (j : Job.t) ->
             { S.jid = j.id; release = Q.of_float j.release;
               size = Q.of_float j.size; remaining = Q.of_float j.size;
               machines =
                 Platform.hosts_of platform j.databank
                 |> List.map (fun (m : Machine.t) -> m.id) });
    machines =
      Array.to_list (Platform.machines platform)
      |> List.map (fun (m : Machine.t) ->
             { S.mid = m.id; speed = Q.of_float m.speed }) }

let instance_gen =
  QCheck2.Gen.(
    let* ndb = int_range 1 3 in
    let* machines =
      list_size (int_range 2 5) (pair (int_range 1 4) (int_range 1 ((1 lsl ndb) - 1)))
    in
    let* jobs =
      list_size (int_range 1 5) (triple (int_range 0 6) (int_range 1 6) (int_range 0 (ndb - 1)))
    in
    return (ndb, machines, jobs))

let build_instance (ndb, machines, jobs) =
  let machines =
    List.mapi
      (fun i (speed, mask) ->
        Machine.make ~id:i ~speed:(float_of_int speed)
          ~databanks:(Array.init ndb (fun d -> mask land (1 lsl d) <> 0)))
      machines
  in
  let hosted =
    List.filter
      (fun d -> List.exists (fun (m : Machine.t) -> Machine.hosts m d) machines)
      (List.init ndb Fun.id)
  in
  match hosted with
  | [] -> None
  | _ ->
    let jobs =
      List.mapi
        (fun i (r, s, d) ->
          mk_job ~id:i ~release:(float_of_int r /. 2.0) ~size:(float_of_int s /. 2.0)
            ~databank:(List.nth hosted (d mod List.length hosted)) ())
        jobs
    in
    Some (Instance.make ~platform:(Platform.make ~machines ~num_databanks:ndb) ~jobs)

let prop_aggregation_preserves_optimum =
  QCheck2.Test.make
    ~name:"virtual-machine aggregation preserves the exact optimum" ~count:50
    instance_gen
    (fun spec ->
      match build_instance spec with
      | None -> true
      | Some inst ->
        let aggregated =
          S.optimal_max_stretch (Snapshot.of_instance inst).Snapshot.problem
        in
        let raw = S.optimal_max_stretch (raw_problem inst) in
        Q.equal aggregated raw)

let test_expand_commitments () =
  let inst =
    Instance.make ~platform:(clustered_platform ())
      ~jobs:[ mk_job ~size:6.0 ~databank:0 () ]
  in
  let snap = Snapshot.of_instance inst in
  let comms =
    [ (0, [ { Realize.start_ = 0.0; stop = 1.0; job = 0 } ]) ]
  in
  let expanded = Snapshot.expand_commitments snap comms in
  (* Virtual machine 0 = real machines 0 and 1: both get the window. *)
  Alcotest.(check int) "two real machines" 2 (List.length expanded);
  Alcotest.(check (list int)) "real ids" [ 0; 1 ]
    (List.sort Int.compare (List.map fst expanded))

(* Realize: policy ordering. *)
let two_interval_assignment () =
  (* Intervals [0,2] and [2,4] on machine 7 (speed 1); job 1 finishes on
     the machine in interval 0, job 2 spans both. *)
  { S.s_star = Q.one;
    intervals =
      [| { S.lo = Q.zero; hi = Q.of_int 2 }; { S.lo = Q.of_int 2; hi = Q.of_int 4 } |];
    work =
      [ (1, 0, 7, Q.one); (2, 0, 7, Q.one); (2, 1, 7, Q.one) ] }

let test_realize_terminal_first () =
  let a = two_interval_assignment () in
  let sizes = function 1 -> Q.of_int 5 | _ -> Q.one in
  let speeds _ = Q.one in
  match Realize.commitments a ~policy:Realize.Terminal_first ~sizes ~speeds with
  | [ (7, comms) ] ->
    (* In interval 0, job 1 is terminal on machine 7 (no later work) so it
       runs first even though its SWRPT key (1 x 5) is larger than job 2's
       remaining key. *)
    let order = List.map (fun (c : Realize.commitment) -> c.job) comms in
    Alcotest.(check (list int)) "terminal job first" [ 1; 2; 2 ] order;
    (match comms with
     | first :: _ ->
       Alcotest.(check (float 1e-9)) "starts at interval lo" 0.0 first.Realize.start_
     | [] -> Alcotest.fail "no commitments")
  | other ->
    Alcotest.failf "expected one machine, got %d" (List.length other)

let test_realize_by_completion_interval () =
  let a = two_interval_assignment () in
  let sizes = function 1 -> Q.of_int 5 | _ -> Q.one in
  let speeds _ = Q.one in
  match Realize.commitments a ~policy:Realize.By_completion_interval ~sizes ~speeds with
  | [ (7, comms) ] ->
    (* Job 1 completes in interval 0, job 2 in interval 1: EDF-like order
       puts job 1 first in interval 0. *)
    let order = List.map (fun (c : Realize.commitment) -> c.job) comms in
    Alcotest.(check (list int)) "completion-interval order" [ 1; 2; 2 ] order
  | other -> Alcotest.failf "expected one machine, got %d" (List.length other)

let test_completion_order () =
  let a = two_interval_assignment () in
  let sizes _ = Q.one in
  Alcotest.(check (list int)) "EGDF order" [ 1; 2 ]
    (Realize.completion_order a ~sizes)

let prop_float_assignment_within_windows =
  QCheck2.Test.make
    ~name:"float witness places work only inside release/deadline windows" ~count:50
    instance_gen
    (fun spec ->
      match build_instance spec with
      | None -> true
      | Some inst ->
        let snap = Snapshot.of_instance inst in
        let p = snap.Snapshot.problem in
        let a = S.solve_float ~refine:true p in
        List.for_all
          (fun (jid, t, _mid, _w) ->
            let j = List.find (fun (j : S.job_spec) -> j.S.jid = jid) p.S.jobs in
            let dl =
              Q.to_float (Q.add j.S.release (Q.mul a.S.s_star j.S.size))
            in
            let iv = a.S.intervals.(t) in
            Q.to_float iv.S.lo >= Q.to_float j.S.release -. 1e-6
            && Q.to_float iv.S.hi <= dl +. 1e-6)
          a.S.work)

let suite =
  ( "snapshot-realize",
    [ Alcotest.test_case "aggregation structure" `Quick test_aggregation_structure;
      QCheck_alcotest.to_alcotest prop_aggregation_preserves_optimum;
      Alcotest.test_case "expand commitments" `Quick test_expand_commitments;
      Alcotest.test_case "terminal-first policy" `Quick test_realize_terminal_first;
      Alcotest.test_case "completion-interval policy" `Quick
        test_realize_by_completion_interval;
      Alcotest.test_case "EGDF completion order" `Quick test_completion_order;
      QCheck_alcotest.to_alcotest prop_float_assignment_within_windows ] )

(* Regression: a job with microscopic remaining work must still drive the
   objective and receive service (with an aggregate-only tolerance its
   work was "forgiven" and the job starved until the plan drained). *)
let test_micro_residue_still_scheduled () =
  let q = Q.of_ints in
  let p =
    { S.now = Q.of_int 10;
      jobs =
        [ (* Small sliver of an early job — above the 1e-9-of-total
             negligibility threshold, so it must be served: deadline
             pressure is high. *)
          { S.jid = 0; release = Q.zero; size = Q.of_int 2;
            remaining = q 1 10_000; machines = [ 0 ] };
          (* A big fresh job dominating the total work. *)
          { S.jid = 1; release = Q.of_int 10; size = Q.of_int 1000;
            remaining = Q.of_int 1000; machines = [ 0 ] } ];
      machines = [ { S.mid = 0; speed = Q.one } ] }
  in
  let a = S.solve_float ~refine:true p in
  (* The sliver must appear in the witness... *)
  Alcotest.(check bool) "sliver scheduled" true
    (List.exists (fun (jid, _, _, _) -> jid = 0) a.S.work);
  (* ...and the objective must reflect its (tight) deadline:
     S* >= (now - r_0) / W_0 = 5. *)
  Alcotest.(check bool) "sliver drives the objective" true
    (Q.to_float a.S.s_star >= 5.0 -. 1e-6)

let test_gantt_render () =
  let inst =
    Instance.make ~platform:(Platform.uniform ~speeds:[ 1.0; 1.0 ])
      ~jobs:[ mk_job ~size:2.0 (); mk_job ~id:1 ~size:2.0 () ]
  in
  let segments =
    [ { Schedule.start_time = 0.0; end_time = 2.0;
        shares = [ (0, [ (0, 1.0) ]); (1, [ (1, 1.0) ]) ] } ]
  in
  let s = Schedule.make ~instance:inst ~segments ~completion:[| 2.0; 2.0 |] in
  let txt = Gantt.render ~width:10 s in
  let lines = String.split_on_char '\n' txt in
  Alcotest.(check bool) "machine rows present" true
    (List.exists (fun l -> String.length l > 4 && String.sub l 0 2 = "M0") lines
     && List.exists (fun l -> String.length l > 4 && String.sub l 0 2 = "M1") lines);
  (* Machine 0 runs job 0 throughout: its row is all '0'. *)
  let row0 = List.find (fun l -> String.length l > 4 && String.sub l 0 2 = "M0") lines in
  Alcotest.(check bool) "job digits rendered" true (String.contains row0 '0')

let extra_cases =
  [ Alcotest.test_case "micro-residue regression" `Quick test_micro_residue_still_scheduled;
    Alcotest.test_case "gantt render" `Quick test_gantt_render ]

let suite = (fst suite, snd suite @ extra_cases)
