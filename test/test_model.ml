open Gripps_model

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let mk_job ?(id = 0) ?(release = 0.0) ?(size = 1.0) ?(databank = 0) () =
  Job.make ~id ~release ~size ~databank

let two_machine_platform () =
  (* M0 holds db 0 and 1; M1 holds db 1 only.  Speeds 2 and 3. *)
  Platform.make
    ~machines:
      [ Machine.make ~id:0 ~speed:2.0 ~databanks:[| true; true |];
        Machine.make ~id:1 ~speed:3.0 ~databanks:[| false; true |] ]
    ~num_databanks:2

let test_job_validation () =
  Alcotest.check_raises "negative release"
    (Invalid_argument "Job.make: negative release date") (fun () ->
      ignore (mk_job ~release:(-1.0) ()));
  Alcotest.check_raises "zero size" (Invalid_argument "Job.make: non-positive size")
    (fun () -> ignore (mk_job ~size:0.0 ()));
  Alcotest.check_raises "bad databank"
    (Invalid_argument "Job.make: negative databank index") (fun () ->
      ignore (mk_job ~databank:(-2) ()))

let test_stretch_weight () =
  Alcotest.(check (float 1e-12)) "w = 1/W" 0.25 (Job.stretch_weight (mk_job ~size:4.0 ()))

let test_machine () =
  let m = Machine.make ~id:3 ~speed:2.5 ~databanks:[| true; false |] in
  Alcotest.(check bool) "hosts 0" true (Machine.hosts m 0);
  Alcotest.(check bool) "hosts 1" false (Machine.hosts m 1);
  Alcotest.(check bool) "out of range" false (Machine.hosts m 5);
  Alcotest.check_raises "bad speed" (Invalid_argument "Machine.make: non-positive speed")
    (fun () -> ignore (Machine.make ~id:0 ~speed:0.0 ~databanks:[| true |]))

let test_platform_queries () =
  let p = two_machine_platform () in
  Alcotest.(check int) "machines" 2 (Platform.num_machines p);
  Alcotest.(check (float 1e-12)) "total speed" 5.0 (Platform.total_speed p);
  Alcotest.(check (float 1e-12)) "speed for db0" 2.0 (Platform.speed_for p 0);
  Alcotest.(check (float 1e-12)) "speed for db1" 5.0 (Platform.speed_for p 1);
  Alcotest.(check int) "hosts of db1" 2 (List.length (Platform.hosts_of p 1));
  Alcotest.(check bool) "can_run restricted" false
    (Platform.can_run p (mk_job ~databank:0 ()) (Platform.machine p 1))

let test_platform_validation () =
  Alcotest.check_raises "bad ids" (Invalid_argument "Platform.make: machine ids must be 0..m-1")
    (fun () ->
      ignore
        (Platform.make
           ~machines:[ Machine.make ~id:1 ~speed:1.0 ~databanks:[| true |] ]
           ~num_databanks:1));
  Alcotest.check_raises "db vector length"
    (Invalid_argument "Platform.make: databank vector length mismatch") (fun () ->
      ignore
        (Platform.make
           ~machines:[ Machine.make ~id:0 ~speed:1.0 ~databanks:[| true |] ]
           ~num_databanks:2))

let test_instance_sorting () =
  let p = Platform.single ~speed:1.0 in
  let jobs =
    [ mk_job ~id:7 ~release:5.0 ~size:2.0 (); mk_job ~id:3 ~release:1.0 ~size:4.0 () ]
  in
  let inst = Instance.make ~platform:p ~jobs in
  Alcotest.(check int) "renumbered first" 0 (Instance.job inst 0).Job.id;
  Alcotest.(check (float 0.0)) "sorted by release" 1.0 (Instance.job inst 0).Job.release;
  Alcotest.(check (float 1e-12)) "delta" 2.0 (Instance.delta inst)

let test_instance_validation () =
  let p = two_machine_platform () in
  Alcotest.check_raises "db out of range"
    (Invalid_argument "Instance.make: job databank out of range") (fun () ->
      ignore (Instance.make ~platform:p ~jobs:[ mk_job ~databank:5 () ]))

let test_instance_unhosted_databank () =
  let p =
    Platform.make
      ~machines:[ Machine.make ~id:0 ~speed:1.0 ~databanks:[| true; false |] ]
      ~num_databanks:2
  in
  Alcotest.check_raises "hosted nowhere"
    (Invalid_argument "Instance.make: job databank hosted nowhere") (fun () ->
      ignore (Instance.make ~platform:p ~jobs:[ mk_job ~databank:1 () ]))

(* The list-based [Instance.make] the columnar one replaced, kept as the
   oracle: one stable list sort, then validate and renumber in sorted
   order. *)
let list_make ~platform ~jobs =
  List.sort Job.compare_by_release jobs
  |> List.mapi (fun i (j : Job.t) ->
         if j.databank < 0 || j.databank >= Platform.num_databanks platform then
           invalid_arg "Instance.make: job databank out of range";
         if Platform.hosts_of platform j.databank = [] then
           invalid_arg "Instance.make: job databank hosted nowhere";
         { j with id = i })
  |> Array.of_list

let same_job (a : Job.t) (b : Job.t) =
  a.id = b.id && a.databank = b.databank && a.user = b.user
  && Int64.equal (Int64.bits_of_float a.release) (Int64.bits_of_float b.release)
  && Int64.equal (Int64.bits_of_float a.size) (Int64.bits_of_float b.size)

(* Databank 2 is hosted nowhere and 3 is out of range; releases come
   from a five-value grid so ties are common, and ids are arbitrary
   (repeated, unordered), as a caller may pass them. *)
let prop_instance_matches_list_oracle =
  let platform =
    Platform.make
      ~machines:
        [ Machine.make ~id:0 ~speed:2.0 ~databanks:[| true; true; false |];
          Machine.make ~id:1 ~speed:3.0 ~databanks:[| false; true; false |] ]
      ~num_databanks:3
  in
  let job_gen =
    QCheck2.Gen.(
      let* id = int_range 0 40 in
      let* release = map (fun k -> float_of_int k /. 2.0) (int_range 0 4) in
      let* size = map (fun k -> float_of_int k /. 4.0) (int_range 1 12) in
      let* databank = frequency [ (20, int_range 0 1); (1, return 2); (1, return 3) ] in
      let* user = int_range 0 3 in
      return (Job.with_user (Job.make ~id ~release ~size ~databank) user))
  in
  QCheck2.Test.make ~name:"columnar Instance.make = list Instance.make, bit for bit"
    ~count:400
    QCheck2.Gen.(list_size (int_range 0 30) job_gen)
    (fun jobs ->
      let outcome f =
        match f () with v -> Ok v | exception Invalid_argument m -> Error m
      in
      match
        ( outcome (fun () -> Instance.jobs (Instance.make ~platform ~jobs)),
          outcome (fun () -> list_make ~platform ~jobs) )
      with
      | Ok got, Ok want -> Array.length got = Array.length want && Array.for_all2 same_job got want
      | Error a, Error b -> a = b
      | Ok _, Error _ | Error _, Ok _ -> false)

let test_ideal_time () =
  let p = two_machine_platform () in
  let inst =
    Instance.make ~platform:p
      ~jobs:[ mk_job ~size:10.0 ~databank:1 (); mk_job ~size:10.0 ~databank:0 () ]
  in
  Alcotest.(check (float 1e-12)) "db1 uses both machines" 2.0 (Instance.ideal_time inst 0);
  Alcotest.(check (float 1e-12)) "db0 uses machine 0 only" 5.0 (Instance.ideal_time inst 1)

(* Schedule validation. *)
let simple_schedule () =
  let p = Platform.single ~speed:2.0 in
  let inst = Instance.make ~platform:p ~jobs:[ mk_job ~size:4.0 () ] in
  let segments =
    [ { Schedule.start_time = 0.0; end_time = 2.0; shares = [ (0, [ (0, 1.0) ]) ] } ]
  in
  Schedule.make ~instance:inst ~segments ~completion:[| 2.0 |]

let test_schedule_valid () =
  let s = simple_schedule () in
  Alcotest.(check (list string)) "no violations" [] (Schedule.validate s);
  Alcotest.(check (float 1e-9)) "work" 4.0 (Schedule.work_received s 0);
  Alcotest.(check (float 1e-9)) "busy" 2.0 (Schedule.machine_busy_time s 0);
  Alcotest.(check bool) "completed" true (Schedule.all_completed s)

let test_schedule_catches_oversubscription () =
  let p = Platform.single ~speed:1.0 in
  let inst =
    Instance.make ~platform:p ~jobs:[ mk_job ~size:1.0 (); mk_job ~id:1 ~size:1.0 () ]
  in
  let segments =
    [ { Schedule.start_time = 0.0; end_time = 1.0;
        shares = [ (0, [ (0, 0.8); (1, 0.8) ]) ] } ]
  in
  let s = Schedule.make ~instance:inst ~segments ~completion:[| nan; nan |] in
  Alcotest.(check bool) "oversubscription detected" true
    (List.exists
       (fun e -> contains e "oversubscribed")
       (Schedule.validate s));
  (* A NaN share makes the run's sum NaN, which fails every ordered
     comparison: both the sum and the share must still be flagged. *)
  let segments =
    [ { Schedule.start_time = 0.0; end_time = 1.0;
        shares = [ (0, [ (0, 1.0); (1, nan) ]) ] } ]
  in
  let errors =
    Schedule.validate
      (Schedule.make ~instance:inst ~segments ~completion:[| nan; nan |])
  in
  Alcotest.(check bool) "NaN sum flagged as oversubscription" true
    (List.exists (fun e -> contains e "oversubscribed") errors);
  Alcotest.(check bool) "NaN share flagged as non-positive" true
    (List.exists (fun e -> contains e "non-positive share") errors)


let test_schedule_catches_early_start () =
  let p = Platform.single ~speed:1.0 in
  let inst = Instance.make ~platform:p ~jobs:[ mk_job ~release:5.0 ~size:1.0 () ] in
  let segments =
    [ { Schedule.start_time = 0.0; end_time = 1.0; shares = [ (0, [ (0, 1.0) ]) ] } ]
  in
  let s = Schedule.make ~instance:inst ~segments ~completion:[| 1.0 |] in
  Alcotest.(check bool) "early start detected" true
    (Schedule.validate s
     |> List.exists (fun e -> contains e "before release"))

let test_schedule_catches_wrong_machine () =
  let p = two_machine_platform () in
  let inst = Instance.make ~platform:p ~jobs:[ mk_job ~size:1.0 ~databank:0 () ] in
  let segments =
    [ { Schedule.start_time = 0.0; end_time = 1.0; shares = [ (1, [ (0, 1.0) ]) ] } ]
  in
  let s = Schedule.make ~instance:inst ~segments ~completion:[| nan |] in
  Alcotest.(check bool) "restricted availability detected" true
    (Schedule.validate s
     |> List.exists (fun e -> contains e "lacking databank"))

let test_metrics () =
  let p = Platform.single ~speed:1.0 in
  let inst =
    Instance.make ~platform:p
      ~jobs:[ mk_job ~release:0.0 ~size:2.0 (); mk_job ~id:1 ~release:1.0 ~size:1.0 () ]
  in
  (* FCFS on a unit-speed machine: C_0 = 2, C_1 = 3. *)
  let m = Metrics.of_completion inst ~completion:[| 2.0; 3.0 |] in
  Alcotest.(check (float 1e-12)) "makespan" 3.0 m.Metrics.makespan;
  Alcotest.(check (float 1e-12)) "max flow" 2.0 m.Metrics.max_flow;
  Alcotest.(check (float 1e-12)) "sum flow" 4.0 m.Metrics.sum_flow;
  (* Stretches: 2/2 = 1 and 2/1 = 2. *)
  Alcotest.(check (float 1e-12)) "max stretch" 2.0 m.Metrics.max_stretch;
  Alcotest.(check (float 1e-12)) "sum stretch" 3.0 m.Metrics.sum_stretch;
  Alcotest.(check (float 1e-12)) "slowdown 1" 1.0
    (Metrics.slowdown inst ~completion:[| 2.0; 3.0 |] 0)

let suite =
  ( "model",
    [ Alcotest.test_case "job validation" `Quick test_job_validation;
      Alcotest.test_case "stretch weight" `Quick test_stretch_weight;
      Alcotest.test_case "machine" `Quick test_machine;
      Alcotest.test_case "platform queries" `Quick test_platform_queries;
      Alcotest.test_case "platform validation" `Quick test_platform_validation;
      Alcotest.test_case "instance sorting" `Quick test_instance_sorting;
      Alcotest.test_case "instance validation" `Quick test_instance_validation;
      Alcotest.test_case "unhosted databank" `Quick test_instance_unhosted_databank;
      Alcotest.test_case "ideal time" `Quick test_ideal_time;
      Alcotest.test_case "schedule valid" `Quick test_schedule_valid;
      Alcotest.test_case "oversubscription" `Quick test_schedule_catches_oversubscription;
      Alcotest.test_case "early start" `Quick test_schedule_catches_early_start;
      Alcotest.test_case "wrong machine" `Quick test_schedule_catches_wrong_machine;
      Alcotest.test_case "metrics" `Quick test_metrics ] )

(* Pretty-printers: smoke (misnested Format boxes fail at runtime). *)
let test_printers_smoke () =
  let p = two_machine_platform () in
  let inst =
    Instance.make ~platform:p
      ~jobs:[ mk_job ~size:2.0 ~databank:1 (); mk_job ~id:1 ~release:1.0 ~databank:0 () ]
  in
  let s = Format.asprintf "%a" Instance.pp inst in
  Alcotest.(check bool) "instance pp" true (String.length s > 0);
  let m = Format.asprintf "%a" Machine.pp (Platform.machine p 0) in
  Alcotest.(check bool) "machine pp lists databanks" true (String.length m > 0);
  let j = Format.asprintf "%a" Job.pp (Instance.job inst 0) in
  Alcotest.(check bool) "job pp" true (String.length j > 0)

let test_gantt_contention_marker () =
  (* Two jobs share one machine evenly: no majority owner -> '#'. *)
  let p = Platform.single ~speed:1.0 in
  let inst =
    Instance.make ~platform:p ~jobs:[ mk_job ~size:1.0 (); mk_job ~id:1 ~size:1.0 () ]
  in
  let segments =
    [ { Schedule.start_time = 0.0; end_time = 2.0;
        shares = [ (0, [ (0, 0.5); (1, 0.5) ]) ] } ]
  in
  let s = Schedule.make ~instance:inst ~segments ~completion:[| 2.0; 2.0 |] in
  let txt = Gantt.render ~width:8 s in
  Alcotest.(check bool) "shared cells marked" true (String.contains txt '#')

let suite =
  ( fst suite,
    snd suite
    @ [ Alcotest.test_case "printers smoke" `Quick test_printers_smoke;
        Alcotest.test_case "gantt contention" `Quick test_gantt_contention_marker;
        QCheck_alcotest.to_alcotest prop_instance_matches_list_oracle ] )
