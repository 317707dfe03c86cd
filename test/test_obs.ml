(* Observability: counters, span nesting with a deterministic clock, the
   zero-cost disabled path, JSONL round-trips, journal replay, and the
   trace-scenario verification loop. *)

open Gripps_model
open Gripps_engine
module Obs = Gripps_obs.Obs
module J = Obs.Journal
module W = Gripps_workload
module E = Gripps_experiments

(* Every test leaves the global singleton as it found it. *)
let sandboxed f () =
  let saved = Obs.level () in
  Fun.protect
    ~finally:(fun () ->
      Obs.set_level saved;
      Obs.set_clock Unix.gettimeofday;
      J.set_sink None;
      J.clear ();
      Obs.Span.reset ())
    f

(* ---- counters --------------------------------------------------------- *)

let test_counters () =
  let c = Obs.Counter.make "test.obs.counter" in
  let c' = Obs.Counter.make "test.obs.counter" in
  Obs.Counter.reset c;
  Obs.Counter.incr c;
  Obs.Counter.add c' 4;
  Alcotest.(check int) "make is idempotent" 5 (Obs.Counter.value c);
  Alcotest.(check (option int)) "registry lookup" (Some 5)
    (Obs.counter_value "test.obs.counter");
  Alcotest.(check bool) "snapshot contains it" true
    (List.mem_assoc "test.obs.counter" (Obs.counters ()));
  Obs.Counter.reset c;
  Alcotest.(check int) "reset" 0 (Obs.Counter.value c)

let test_poll () =
  let cell = ref 7 in
  Obs.register_poll "test.obs.poll" (fun () -> !cell);
  Alcotest.(check (option int)) "poll value" (Some 7)
    (Obs.counter_value "test.obs.poll");
  cell := 9;
  Alcotest.(check (option int)) "poll is live" (Some 9)
    (Obs.counter_value "test.obs.poll")

(* ---- spans ------------------------------------------------------------ *)

(* A deterministic clock advancing 1 s per reading: outer opens at 0,
   inner runs [1,2], outer closes at 3. *)
let test_span_nesting () =
  let t = ref (-1.0) in
  Obs.set_clock (fun () -> t := !t +. 1.0; !t);
  Obs.set_level Obs.Spans;
  Obs.Span.reset ();
  let v =
    Obs.Span.with_ "test.outer" (fun () ->
        Obs.Span.with_ "test.inner" (fun () -> 42))
  in
  Alcotest.(check int) "value threaded" 42 v;
  Alcotest.(check (float 1e-9)) "inner duration" 1.0 (Obs.Span.total "test.inner");
  Alcotest.(check (float 1e-9)) "outer contains inner" 3.0
    (Obs.Span.total "test.outer");
  Alcotest.(check int) "inner count" 1 (Obs.Span.count "test.inner");
  Alcotest.(check (float 1e-9)) "prefix sum" 4.0 (Obs.Span.total_prefix "test.")

let test_span_journal_depth () =
  let t = ref (-1.0) in
  Obs.set_clock (fun () -> t := !t +. 1.0; !t);
  Obs.set_level Obs.Events;
  J.clear ();
  Obs.Span.reset ();
  Obs.Span.with_ "test.outer" (fun () ->
      Obs.Span.with_ "test.inner" (fun () -> ()));
  let depths =
    List.filter_map
      (function J.Span_closed { name; depth; _ } -> Some (name, depth) | _ -> None)
      (J.events ())
  in
  (* Inner closes first (depth 1), then outer (depth 0). *)
  Alcotest.(check (list (pair string int)))
    "nesting depths journaled"
    [ ("test.inner", 1); ("test.outer", 0) ]
    depths

let test_span_exception_safe () =
  Obs.set_level Obs.Spans;
  Obs.Span.reset ();
  (try Obs.Span.with_ "test.raises" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "span closed on exception" 1 (Obs.Span.count "test.raises");
  (* Depth unwound: a sibling span opens at depth 0 again. *)
  Obs.set_level Obs.Events;
  J.clear ();
  Obs.Span.with_ "test.sibling" (fun () -> ());
  match J.events () with
  | [ J.Span_closed { depth = 0; _ } ] -> ()
  | _ -> Alcotest.fail "depth not restored after exception"

let nop () = ()

let test_disabled_zero_alloc () =
  Obs.set_level Obs.Counters;
  (* Warm up so any one-time setup is out of the measured window. *)
  for _ = 1 to 64 do
    Obs.Span.with_ "test.noalloc" nop;
    if J.on () then J.record (J.Note { key = "x"; value = "y" })
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Obs.Span.with_ "test.noalloc" nop;
    if J.on () then J.record (J.Note { key = "x"; value = "y" })
  done;
  let dw = Gc.minor_words () -. w0 in
  (* 10k disabled span+journal hooks; allow a little slop for the Gc
     call itself but nothing proportional to the iteration count. *)
  Alcotest.(check bool)
    (Printf.sprintf "no allocation when disabled (%.0f words)" dw)
    true (dw < 256.0)

(* ---- JSONL ------------------------------------------------------------ *)

let sample_events =
  [ J.Run_start { scheduler = "Online"; jobs = 3; machines = 2 };
    J.Sim_event { time = 1.0312345678901234; kind = J.Arrival; subject = 0 };
    J.Sim_event { time = 2.5; kind = J.Completion; subject = 1 };
    J.Sim_event { time = 2.5; kind = J.Boundary; subject = -1 };
    J.Sim_event { time = 3.0; kind = J.Failure; subject = 1 };
    J.Sim_event { time = 4.0; kind = J.Recovery; subject = 1 };
    J.Replan
      { time = 2.5; scheduler = "Online";
        allocation = [ (0, [ (1, 0.5); (2, 0.25) ]); (1, []) ];
        horizon = Some 3.75 };
    J.Replan { time = 2.5; scheduler = "Idle"; allocation = []; horizon = None };
    J.Segment
      { start_time = 0.1; end_time = 0.30000000000000004;
        shares = [ (0, [ (0, 1.0) ]) ] };
    J.Probe { pipeline = "exact"; stretch = 1.625; feasible = true };
    J.Probe { pipeline = "float"; stretch = Float.nan; feasible = false };
    J.Span_closed
      { name = "solver.exact"; depth = 1; start_s = 0.125; dur_s = 0.0625 };
    J.Note { key = "weird \"chars\"\n\t"; value = "\\backslash\r" };
    J.Run_end { time = 54.15123456789; completed = 6 } ]

(* [compare], not [=]: the NaN probe must round-trip too. *)
let same_events a b = compare (a : J.event list) b = 0

let test_jsonl_roundtrip () =
  let lines = List.map J.to_json sample_events in
  let back = List.filter_map J.of_json lines in
  Alcotest.(check int) "no line lost" (List.length sample_events)
    (List.length back);
  Alcotest.(check bool) "round-trip is the identity" true
    (same_events sample_events back)

let test_jsonl_file_roundtrip () =
  let path = Filename.temp_file "gripps_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      J.write_jsonl ~path sample_events;
      let back = J.read_jsonl ~path in
      Alcotest.(check bool) "file round-trip" true (same_events sample_events back))

let test_of_json_malformed () =
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S" line)
        true
        (J.of_json line = None))
    [ ""; "garbage"; "{"; "{\"type\":\"bogus\"}"; "{\"type\":\"probe\"}";
      "[1,2,3]"; "{\"type\":\"event\",\"kind\":\"nope\",\"time\":1,\"subject\":0}" ]

(* Values at the edges of the emitters' fast paths: the int path's
   2^53 bound and -0.0, fixed vs exponent notation, subnormals, the
   float extremes, the non-finite sentinels, and ints at the extremes. *)
let edge_events =
  let arrival x = J.Sim_event { time = x; kind = J.Arrival; subject = 0 } in
  List.map arrival
    [ 0.0; -0.0; -3.0; 9007199254740991.0; 9007199254740992.0;
      9007199254740994.0; 1e16; 1e17; 0.1; 5e-324; 2.2250738585072014e-308;
      max_float; -.max_float; infinity; neg_infinity ]
  @ [ J.Run_start { scheduler = "edges"; jobs = min_int; machines = max_int };
      J.Sim_event { time = -0.1; kind = J.Boundary; subject = -9 };
      J.Sim_event { time = 1e-7; kind = J.Failure; subject = 9 };
      J.Span_closed
        { name = "s"; depth = -10; start_s = 123456.789; dur_s = 1e300 };
      J.Run_end { time = 4503599627370495.5; completed = 10 };
      J.Segment
        { start_time = 0.5; end_time = 1.0;
          shares =
            [ (0, [ (min_int, 1.0); (max_int, -0.0) ]);
              (10, [ (-10, 0.3333333333333333) ]) ] } ]

(* The lines the [Printf]-based encoder wrote for [sample_events @
   edge_events], kept as literals: a drift in the format fails here even
   where a round-trip would still pass. *)
let pinned_lines =
  [
    "{\"type\":\"run_start\",\"scheduler\":\"Online\",\"jobs\":3,\"machines\":2}";
    "{\"type\":\"event\",\"kind\":\"arrival\",\"time\":1.0312345678901234,\"subject\":0}";
    "{\"type\":\"event\",\"kind\":\"completion\",\"time\":2.5,\"subject\":1}";
    "{\"type\":\"event\",\"kind\":\"boundary\",\"time\":2.5,\"subject\":-1}";
    "{\"type\":\"event\",\"kind\":\"failure\",\"time\":3,\"subject\":1}";
    "{\"type\":\"event\",\"kind\":\"recovery\",\"time\":4,\"subject\":1}";
    "{\"type\":\"replan\",\"time\":2.5,\"scheduler\":\"Online\",\"alloc\":[[0,[[1,0.5],[2,0.25]]],[1,[]]],\"horizon\":3.75}";
    "{\"type\":\"replan\",\"time\":2.5,\"scheduler\":\"Idle\",\"alloc\":[],\"horizon\":null}";
    "{\"type\":\"segment\",\"start\":0.10000000000000001,\"end\":0.30000000000000004,\"shares\":[[0,[[0,1]]]]}";
    "{\"type\":\"probe\",\"pipeline\":\"exact\",\"stretch\":1.625,\"feasible\":true}";
    "{\"type\":\"probe\",\"pipeline\":\"float\",\"stretch\":null,\"feasible\":false}";
    "{\"type\":\"span\",\"name\":\"solver.exact\",\"depth\":1,\"start\":0.125,\"dur\":0.0625}";
    "{\"type\":\"note\",\"key\":\"weird \\\"chars\\\"\\n\\t\",\"value\":\"\\\\backslash\\r\"}";
    "{\"type\":\"run_end\",\"time\":54.15123456789,\"completed\":6}";
    "{\"type\":\"event\",\"kind\":\"arrival\",\"time\":0,\"subject\":0}";
    "{\"type\":\"event\",\"kind\":\"arrival\",\"time\":-0,\"subject\":0}";
    "{\"type\":\"event\",\"kind\":\"arrival\",\"time\":-3,\"subject\":0}";
    "{\"type\":\"event\",\"kind\":\"arrival\",\"time\":9007199254740991,\"subject\":0}";
    "{\"type\":\"event\",\"kind\":\"arrival\",\"time\":9007199254740992,\"subject\":0}";
    "{\"type\":\"event\",\"kind\":\"arrival\",\"time\":9007199254740994,\"subject\":0}";
    "{\"type\":\"event\",\"kind\":\"arrival\",\"time\":10000000000000000,\"subject\":0}";
    "{\"type\":\"event\",\"kind\":\"arrival\",\"time\":1e+17,\"subject\":0}";
    "{\"type\":\"event\",\"kind\":\"arrival\",\"time\":0.10000000000000001,\"subject\":0}";
    "{\"type\":\"event\",\"kind\":\"arrival\",\"time\":4.9406564584124654e-324,\"subject\":0}";
    "{\"type\":\"event\",\"kind\":\"arrival\",\"time\":2.2250738585072014e-308,\"subject\":0}";
    "{\"type\":\"event\",\"kind\":\"arrival\",\"time\":1.7976931348623157e+308,\"subject\":0}";
    "{\"type\":\"event\",\"kind\":\"arrival\",\"time\":-1.7976931348623157e+308,\"subject\":0}";
    "{\"type\":\"event\",\"kind\":\"arrival\",\"time\":1e999,\"subject\":0}";
    "{\"type\":\"event\",\"kind\":\"arrival\",\"time\":-1e999,\"subject\":0}";
    "{\"type\":\"run_start\",\"scheduler\":\"edges\",\"jobs\":-4611686018427387904,\"machines\":4611686018427387903}";
    "{\"type\":\"event\",\"kind\":\"boundary\",\"time\":-0.10000000000000001,\"subject\":-9}";
    "{\"type\":\"event\",\"kind\":\"failure\",\"time\":9.9999999999999995e-08,\"subject\":9}";
    "{\"type\":\"span\",\"name\":\"s\",\"depth\":-10,\"start\":123456.789,\"dur\":1.0000000000000001e+300}";
    "{\"type\":\"run_end\",\"time\":4503599627370495.5,\"completed\":10}";
    "{\"type\":\"segment\",\"start\":0.5,\"end\":1,\"shares\":[[0,[[-4611686018427387904,1],[4611686018427387903,-0]]],[10,[[-10,0.33333333333333331]]]]}" ]

let test_to_json_pinned () =
  Alcotest.(check (list string)) "to_json bytes" pinned_lines
    (List.map J.to_json (sample_events @ edge_events))

let float_edges =
  [ 0.0; -0.0; -3.0; 9007199254740991.0; 9007199254740992.0;
    9007199254740994.0; 1e16; 1e17; 0.1; 5e-324; 2.2250738585072014e-308;
    max_float; -.max_float; Float.nan; -.Float.nan; infinity; neg_infinity ]

let json_number x =
  if Float.is_nan x then "null"
  else if x = infinity then "1e999"
  else if x = neg_infinity then "-1e999"
  else Printf.sprintf "%.17g" x

(* Random bit patterns (NaNs and infinities included), integral floats
   around the 2^53 bound, dyadic fractions and the edges.  Each float is
   written twice in a row through one writer, the second time from the
   memo. *)
let prop_float_emitter =
  QCheck2.Test.make ~name:"float emitter = Printf %.17g" ~count:2000
    QCheck2.Gen.(
      list_size (int_range 1 8)
        (oneof
           [ map Int64.float_of_bits int64;
             map (fun i -> Float.of_int (i asr 8)) int;
             map (fun i -> Float.of_int i /. 1024.0) (int_range (-100_000) 100_000);
             oneofl float_edges ]))
    (fun xs ->
      let written emit =
        let w = J.Writer.create () in
        List.iter
          (fun x ->
            emit w x;
            emit w x;
            Buffer.add_char (J.Writer.buffer w) ' ')
          xs;
        Buffer.contents (J.Writer.buffer w)
      in
      let expected show = String.concat "" (List.map (fun x -> show x ^ show x ^ " ") xs) in
      written J.Writer.float17 = expected (Printf.sprintf "%.17g")
      && written J.Writer.float = expected json_number)

let test_float_emitter_edges () =
  List.iter
    (fun x ->
      let w = J.Writer.create () in
      J.Writer.float17 w x;
      Alcotest.(check string) (Printf.sprintf "%h" x) (Printf.sprintf "%.17g" x)
        (Buffer.contents (J.Writer.buffer w)))
    float_edges

let prop_int_emitter =
  QCheck2.Test.make ~name:"int emitter = string_of_int" ~count:2000
    QCheck2.Gen.(
      oneof [ int; small_signed_int; oneofl [ 0; 9; -9; 10; -10; min_int; max_int ] ])
    (fun n ->
      let w = J.Writer.create () in
      J.Writer.int w n;
      Buffer.contents (J.Writer.buffer w) = string_of_int n)

let test_int_emitter_edges () =
  List.iter
    (fun n ->
      let w = J.Writer.create () in
      J.Writer.int w n;
      Alcotest.(check string) (string_of_int n) (string_of_int n)
        (Buffer.contents (J.Writer.buffer w)))
    [ 0; 9; -9; 10; -10; min_int; max_int ]

(* ---- positions, sink, writer windows ---------------------------------- *)

let note k = J.Note { key = "k"; value = string_of_int k }

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_positions () =
  Obs.set_level Obs.Events;
  J.clear ();
  for k = 1 to 5 do
    J.record (note k)
  done;
  Alcotest.(check int) "position counts records" 5 (J.position ());
  Alcotest.(check bool) "a mark addresses its suffix" true
    (compare (J.since 3) [ note 4; note 5 ] = 0);
  J.clear ();
  Alcotest.(check int) "clear resets position" 0 (J.position ());
  J.record (note 6);
  Alcotest.(check bool) "a mark past a clear clamps to what is buffered" true
    (compare (J.since 3) [] = 0 && compare (J.since 0) [ note 6 ] = 0);
  let seen = ref [] in
  J.set_sink (Some (fun e -> seen := e :: !seen));
  J.forward (note 7);
  J.record (note 8);
  Alcotest.(check bool) "the sink sees forwarded and recorded events" true
    (compare (List.rev !seen) [ note 7; note 8 ] = 0);
  Alcotest.(check bool) "a forwarded event is not stored" true
    (compare (J.events ()) [ note 6; note 8 ] = 0)

(* The daemon's segment path: records encoded into one writer as they
   are made, the buffer appended to a file in windows and drained — the
   file must read back as exactly the journal. *)
let test_writer_windows_roundtrip () =
  let path = Filename.temp_file "gripps_obs_seg" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Sys.remove path;
      let w = J.Writer.create () in
      let flush () =
        let oc = open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path in
        Buffer.output_buffer oc (J.Writer.buffer w);
        close_out oc;
        Buffer.clear (J.Writer.buffer w)
      in
      List.iteri
        (fun i e ->
          J.Writer.line w e;
          if i = 6 then flush ())
        sample_events;
      flush ();
      Alcotest.(check string) "lines are to_json's"
        (String.concat "" (List.map (fun e -> J.to_json e ^ "\n") sample_events))
        (Gripps_obs.Fsio.read_file path);
      Alcotest.(check bool) "windows concatenate to the journal" true
        (same_events sample_events (J.read_jsonl_strict ~path)))

let test_read_jsonl_strict_errors () =
  let path = Filename.temp_file "gripps_obs_bad" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let write s =
        let oc = open_out path in
        output_string oc s;
        close_out oc
      in
      let expect_failure label fragment =
        match J.read_jsonl_strict ~path with
        | _ -> Alcotest.fail (label ^ ": accepted")
        | exception Failure msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%s names the damage (%s)" label msg)
            true (contains msg fragment)
      in
      write (J.to_json (note 1) ^ "\n" ^ "garbage\n");
      expect_failure "malformed line" "line 2";
      Alcotest.(check int) "lenient reader skips the malformed line" 1
        (List.length (J.read_jsonl ~path));
      (* A file not ending in a newline is the signature of a crash-torn
         append: the strict reader must refuse the whole file. *)
      write (J.to_json (note 1) ^ "\n"
             ^ String.sub (J.to_json (note 2)) 0 5);
      expect_failure "torn last record" "truncated";
      write (J.to_json (note 1) ^ "\n" ^ J.to_json (note 2));
      expect_failure "missing trailing newline" "truncated")

(* ---- journal replay --------------------------------------------------- *)

let run_and_replay scheduler inst =
  Obs.with_level Obs.Events (fun () ->
      let report = Sim.run_report_flat ~horizon:1e9 scheduler inst in
      (* Round-trip through the serialization before replaying, so the
         property covers the JSONL encoding too. *)
      let journal =
        List.filter_map J.of_json (List.map J.to_json report.Sim.journal)
      in
      (report, Replay.schedule_of_journal inst journal))

let prop_replay_reproduces_run =
  QCheck2.Test.make ~name:"journal replay reproduces the schedule" ~count:12
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 1 3))
    (fun (seed, density_q) ->
      let config =
        W.Config.make ~sites:2 ~databases:2 ~availability:0.8
          ~density:(float_of_int density_q) ~horizon:6.0 ()
      in
      let inst =
        W.Generator.instance (Gripps_rng.Splitmix.create seed) config
      in
      List.for_all
        (fun s ->
          let report, replayed = run_and_replay s inst in
          Schedule.validate replayed = []
          && Schedule.all_completed replayed
          && compare report.Sim.metrics (Metrics.of_schedule replayed) = 0)
        [ Gripps_core.Online_lp.online;
          Gripps_sched.List_sched.resort_scheduler ~name:"SWRPT"
            ~rule:Gripps_sched.Priority.swrpt ])

let test_replay_under_faults () =
  let config =
    W.Config.make ~sites:3 ~databases:3 ~availability:0.6 ~density:1.0
      ~horizon:20.0 ()
  in
  let inst = W.Generator.instance (Gripps_rng.Splitmix.create 5) config in
  let machines = Platform.num_machines (Instance.platform inst) in
  let faults =
    Fault.poisson
      (Gripps_rng.Splitmix.create 17)
      ~mtbf:10.0 ~mttr:2.0 ~machines ~until:20.0
  in
  Obs.with_level Obs.Events (fun () ->
      let report =
        Sim.run_report_flat ~horizon:1e9 ~faults ~loss:Fault.Crash
          Gripps_sched.List_sched.flat_swrpt inst
      in
      let replayed = Replay.schedule_of_journal inst report.Sim.journal in
      Alcotest.(check bool) "crash-run metrics reproduced bitwise" true
        (compare report.Sim.metrics (Metrics.of_schedule replayed) = 0);
      let has_failure =
        List.exists
          (function J.Sim_event { kind = J.Failure; _ } -> true | _ -> false)
          report.Sim.journal
      in
      Alcotest.(check bool) "journal recorded failures" true has_failure)

let two_job_inst () =
  Instance.make
    ~platform:(Platform.single ~speed:1.0)
    ~jobs:
      [ Job.make ~id:0 ~release:0.0 ~size:1.0 ~databank:0;
        Job.make ~id:1 ~release:0.0 ~size:1.0 ~databank:0 ]

let test_replay_empty_journal () =
  let inst = two_job_inst () in
  let sch = Replay.schedule_of_journal inst [] in
  Alcotest.(check (list string)) "empty journal is vacuously valid" []
    (Schedule.validate sch);
  Alcotest.(check bool) "nothing completed" false (Schedule.all_completed sch);
  Alcotest.(check int) "no completions counted" 0 (Replay.completed_jobs [])

(* A crash can journal a [Replan] whose realized segments never made it
   to disk: replay must yield the delivered prefix as a valid partial
   schedule, ignoring the dangling plan. *)
let test_replay_mid_replan_tail () =
  let inst = two_job_inst () in
  let journal =
    [ J.Run_start { scheduler = "daemon"; jobs = 2; machines = 1 };
      J.Segment
        { start_time = 0.0; end_time = 1.0; shares = [ (0, [ (0, 1.0) ]) ] };
      J.Sim_event { time = 1.0; kind = J.Completion; subject = 0 };
      J.Replan
        { time = 1.0; scheduler = "daemon";
          allocation = [ (0, [ (1, 1.0) ]) ]; horizon = None } ]
  in
  let sch = Replay.schedule_of_journal inst journal in
  Alcotest.(check (list string)) "partial schedule validates" []
    (Schedule.validate sch);
  Alcotest.(check bool) "job 1 still open" false (Schedule.all_completed sch);
  Alcotest.(check (float 0.0)) "job 0 got its work" 1.0
    (Schedule.work_received sch 0);
  Alcotest.(check (float 0.0)) "planned-only work not delivered" 0.0
    (Schedule.work_received sch 1);
  Alcotest.(check int) "one completion" 1 (Replay.completed_jobs journal)

(* Failure/Recovery subjects are machine ids, which may exceed the job
   range — replay must not misread them as completions. *)
let test_replay_ignores_fault_events () =
  let inst = two_job_inst () in
  let journal =
    [ J.Sim_event { time = 0.5; kind = J.Failure; subject = 7 };
      J.Sim_event { time = 0.9; kind = J.Recovery; subject = 7 };
      J.Segment
        { start_time = 1.0; end_time = 2.0; shares = [ (0, [ (0, 1.0) ]) ] };
      J.Sim_event { time = 2.0; kind = J.Completion; subject = 0 } ]
  in
  let sch = Replay.schedule_of_journal inst journal in
  Alcotest.(check (list string)) "fault records replay fine" []
    (Schedule.validate sch);
  Alcotest.(check int) "fault subjects not counted as completions" 1
    (Replay.completed_jobs journal)

let test_replay_rejects_foreign_jobs () =
  let inst =
    Instance.make
      ~platform:(Platform.single ~speed:1.0)
      ~jobs:[ Job.make ~id:0 ~release:0.0 ~size:1.0 ~databank:0 ]
  in
  Alcotest.check_raises "unknown job id"
    (Invalid_argument "Replay: completion record for unknown job")
    (fun () ->
      ignore
        (Replay.schedule_of_journal inst
           [ J.Sim_event { time = 1.0; kind = J.Completion; subject = 3 } ]))

let test_horizon_exceeded_carries_journal () =
  (* The guard is checked at the top of the event loop, so there must be
     an event (the second arrival) past the horizon for it to fire. *)
  let inst =
    Instance.make
      ~platform:(Platform.single ~speed:1.0)
      ~jobs:
        [ Job.make ~id:0 ~release:0.0 ~size:10.0 ~databank:0;
          Job.make ~id:1 ~release:5.0 ~size:1.0 ~databank:0 ]
  in
  Obs.with_level Obs.Events (fun () ->
      match
        Sim.run_report_flat ~horizon:1.0 Gripps_sched.List_sched.flat_swrpt inst
      with
      | _ -> Alcotest.fail "expected Horizon_exceeded"
      | exception Sim.Horizon_exceeded { journal; _ } ->
        Alcotest.(check bool) "partial journal non-empty" true (journal <> []);
        Alcotest.(check bool) "starts with run_start" true
          (match journal with J.Run_start _ :: _ -> true | _ -> false))

(* ---- parallel journals ------------------------------------------------- *)

(* Two simulations run in separate domains; the coordinator's merged
   journal must be exactly the concatenation of the per-shard journals in
   shard order, and each slice must still replay to the live metrics
   bit-for-bit. *)
let test_parallel_journal_merge () =
  let module Pool = Gripps_parallel.Pool in
  let instances =
    List.map
      (fun seed ->
        W.Generator.instance
          (Gripps_rng.Splitmix.create seed)
          (W.Config.make ~sites:2 ~databases:2 ~availability:0.8 ~density:1.0
             ~horizon:6.0 ()))
      [ 31; 32 ]
  in
  Obs.with_level Obs.Events (fun () ->
      J.clear ();
      let results =
        Pool.try_map (Pool.create ~domains:2 ()) ~shards:2 (fun i ->
            let inst = List.nth instances i in
            ( inst,
              Sim.run_report_flat ~horizon:1e9
                Gripps_sched.List_sched.flat_swrpt inst ))
      in
      let reports =
        Array.to_list results
        |> List.map (function Ok r -> r | Error e -> raise e)
      in
      Alcotest.(check bool) "merged journal = shard journals in shard order"
        true
        (compare (J.events ())
           (List.concat_map (fun (_, r) -> r.Sim.journal) reports)
         = 0);
      List.iter
        (fun (inst, (r : Sim.report)) ->
          let replayed = Replay.schedule_of_journal inst r.Sim.journal in
          Alcotest.(check bool) "shard journal replays to live metrics" true
            (compare r.Sim.metrics (Metrics.of_schedule replayed) = 0))
        reports;
      J.clear ())

(* The CLI's [trace --verify --jobs N] path: verification through a
   2-domain sweep is indistinguishable from the sequential loop. *)
let test_trace_verify_parallel () =
  let module Sweep = Gripps_parallel.Sweep in
  let scenarios =
    List.filter
      (fun (sc : E.Trace.scenario) -> sc.E.Trace.scheduler <> "Offline")
      E.Trace.scenarios
  in
  let sequential = List.map E.Trace.verify scenarios in
  let parallel =
    Sweep.run
      ~pool:(Gripps_parallel.Pool.create ~domains:2 ())
      (Sweep.of_list scenarios E.Trace.verify)
  in
  Alcotest.(check bool) "parallel verification is bit-identical" true
    (compare sequential parallel = 0);
  List.iter
    (fun (v : E.Trace.verification) ->
      Alcotest.(check bool)
        (Printf.sprintf "scenario %s verifies in parallel" v.E.Trace.v_scenario)
        true v.E.Trace.v_ok)
    parallel

(* ---- trace scenarios --------------------------------------------------- *)

let test_trace_verify () =
  List.iter
    (fun (sc : E.Trace.scenario) ->
      let v = E.Trace.verify sc in
      Alcotest.(check bool)
        (Printf.sprintf "scenario %s verifies" sc.E.Trace.sc_name)
        true v.E.Trace.v_ok)
    (List.filter
       (fun (sc : E.Trace.scenario) -> sc.E.Trace.scheduler <> "Offline")
       E.Trace.scenarios)

let test_trace_verify_offline () =
  match E.Trace.find "offline-exact" with
  | None -> Alcotest.fail "offline-exact scenario missing"
  | Some sc ->
    let v = E.Trace.verify sc in
    Alcotest.(check bool) "offline-exact verifies" true v.E.Trace.v_ok

let suite =
  ( "obs",
    [ Alcotest.test_case "counters" `Quick (sandboxed test_counters);
      Alcotest.test_case "polled gauges" `Quick (sandboxed test_poll);
      Alcotest.test_case "span nesting" `Quick (sandboxed test_span_nesting);
      Alcotest.test_case "span journal depth" `Quick
        (sandboxed test_span_journal_depth);
      Alcotest.test_case "span exception safety" `Quick
        (sandboxed test_span_exception_safe);
      Alcotest.test_case "disabled hooks allocate nothing" `Quick
        (sandboxed test_disabled_zero_alloc);
      Alcotest.test_case "jsonl round-trip" `Quick (sandboxed test_jsonl_roundtrip);
      Alcotest.test_case "jsonl file round-trip" `Quick
        (sandboxed test_jsonl_file_roundtrip);
      Alcotest.test_case "malformed json rejected" `Quick
        (sandboxed test_of_json_malformed);
      Alcotest.test_case "to_json bytes pinned" `Quick test_to_json_pinned;
      QCheck_alcotest.to_alcotest prop_float_emitter;
      Alcotest.test_case "float emitter edges" `Quick test_float_emitter_edges;
      QCheck_alcotest.to_alcotest prop_int_emitter;
      Alcotest.test_case "int emitter edges" `Quick test_int_emitter_edges;
      Alcotest.test_case "journal positions and sink" `Quick
        (sandboxed test_positions);
      Alcotest.test_case "writer windows round-trip" `Quick
        (sandboxed test_writer_windows_roundtrip);
      Alcotest.test_case "strict reader rejects damage" `Quick
        (sandboxed test_read_jsonl_strict_errors);
      Alcotest.test_case "replay of an empty journal" `Quick
        (sandboxed test_replay_empty_journal);
      Alcotest.test_case "replay of a mid-replan tail" `Quick
        (sandboxed test_replay_mid_replan_tail);
      Alcotest.test_case "replay ignores fault events" `Quick
        (sandboxed test_replay_ignores_fault_events);
      QCheck_alcotest.to_alcotest prop_replay_reproduces_run;
      Alcotest.test_case "replay under faults" `Quick
        (sandboxed test_replay_under_faults);
      Alcotest.test_case "replay validates job ids" `Quick
        (sandboxed test_replay_rejects_foreign_jobs);
      Alcotest.test_case "horizon_exceeded carries journal" `Quick
        (sandboxed test_horizon_exceeded_carries_journal);
      Alcotest.test_case "parallel journal merge" `Quick
        (sandboxed test_parallel_journal_merge);
      Alcotest.test_case "trace verify under parallelism" `Slow
        (sandboxed test_trace_verify_parallel);
      Alcotest.test_case "trace scenarios verify" `Slow
        (sandboxed test_trace_verify);
      Alcotest.test_case "trace offline-exact verifies" `Slow
        (sandboxed test_trace_verify_offline) ] )
