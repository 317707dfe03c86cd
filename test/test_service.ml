(* The streaming daemon: admission control, bounded memory, agreement
   with the batch engine, and — the centerpiece — the kill-and-resume
   torture property: a daemon SIGKILLed at a random event index and
   restored from its checkpoint finishes with bit-identical metrics,
   journal segments and final checkpoint. *)

open Gripps_model
module Service = Gripps_service.Service
module Source = Gripps_workload.Source
module W = Gripps_workload
module Sim = Gripps_engine.Sim
module Replay = Gripps_engine.Replay
module Fault = Gripps_engine.Fault
module List_sched = Gripps_sched.List_sched
module Obs = Gripps_obs.Obs
module Fsio = Gripps_obs.Fsio
module Splitmix = Gripps_rng.Splitmix

(* ---- scratch directories ----------------------------------------------- *)

let tmp_counter = ref 0

let with_tmpdir f =
  incr tmp_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gripps-serve-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  let rec rm_rf d =
    if Sys.file_exists d then begin
      Array.iter
        (fun f ->
          let p = Filename.concat d f in
          if Sys.is_directory p then rm_rf p else Sys.remove p)
        (Sys.readdir d);
      Unix.rmdir d
    end
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Every deterministic field of a report; the wall-clock observables
   (replan_p99_s, deadline_misses) are excluded by design. *)
let report_repr (r : Service.report) =
  Printf.sprintf
    "outcome=%s completed=%d sumS=%.17g maxS=%.17g sumF=%.17g maxF=%.17g \
     mk=%.17g adm=%d enq=%d drop=%d shed=%d peakL=%d peakQ=%d ev=%d rp=%d \
     ck=%d lost=%.17g t=%.17g cur=%d"
    (match r.outcome with
     | Service.Drained -> "drained"
     | Service.Horizon_reached -> "horizon"
     | Service.Killed -> "killed")
    r.metrics.Service.completed r.metrics.Service.sum_stretch
    r.metrics.Service.max_stretch r.metrics.Service.sum_flow
    r.metrics.Service.max_flow r.metrics.Service.makespan r.admitted
    r.enqueued r.dropped r.shed r.peak_live r.peak_queue r.events r.replans
    r.checkpoints r.lost_work r.final_time r.source_cursor

let journal_bytes dir =
  Service.segment_files ~dir
  |> List.map (fun p -> Filename.basename p ^ ":" ^ Fsio.read_file p)
  |> String.concat "\n--\n"

(* ---- fixed small scenarios --------------------------------------------- *)

let uni_platform speeds = Platform.uniform ~speeds

let items_of l =
  List.map (fun (r, w) -> { Source.release = r; size = w; databank = 0 }) l

let test_drains_simple () =
  (* One unit-speed machine, two unit jobs at t=0: SRPT finishes them at
     1 and 2; flows 1 and 2, stretches 1 and 2. *)
  let cfg =
    Service.config ~platform:(uni_platform [ 1.0 ]) ~rule:Service.Srpt ()
  in
  let r = Service.run cfg (Source.of_list (items_of [ (0.0, 1.0); (0.0, 1.0) ])) in
  Alcotest.(check bool) "drained" true (r.outcome = Service.Drained);
  Alcotest.(check int) "completed" 2 r.metrics.Service.completed;
  Alcotest.(check (float 1e-9)) "makespan" 2.0 r.metrics.Service.makespan;
  Alcotest.(check (float 1e-9)) "sum flow" 3.0 r.metrics.Service.sum_flow;
  Alcotest.(check (float 1e-9)) "sum stretch" 3.0 r.metrics.Service.sum_stretch;
  Alcotest.(check int) "admitted" 2 r.admitted;
  Alcotest.(check int) "peak live" 2 r.peak_live

let test_drop_policy () =
  (* One slot, no queue, three simultaneous jobs: two are dropped. *)
  let cfg =
    Service.config ~platform:(uni_platform [ 1.0 ]) ~policy:Service.Drop
      ~max_live:1 ~queue_cap:0 ()
  in
  let r =
    Service.run cfg
      (Source.of_list (items_of [ (0.0, 1.0); (0.0, 2.0); (0.0, 3.0) ]))
  in
  Alcotest.(check int) "admitted" 1 r.admitted;
  Alcotest.(check int) "dropped" 2 r.dropped;
  Alcotest.(check int) "completed" 1 r.metrics.Service.completed;
  Alcotest.(check int) "peak live bounded" 1 r.peak_live

let test_block_policy () =
  (* One slot, queue of one, blocking: nothing is lost — the daemon
     stops consuming the source until capacity frees, and every job
     completes with its original release date. *)
  let cfg =
    Service.config ~platform:(uni_platform [ 1.0 ]) ~policy:Service.Block
      ~rule:Service.Fcfs ~max_live:1 ~queue_cap:1 ()
  in
  let r =
    Service.run cfg
      (Source.of_list
         (items_of [ (0.0, 1.0); (0.0, 1.0); (0.0, 1.0); (0.0, 1.0) ]))
  in
  Alcotest.(check int) "all admitted" 4 r.admitted;
  Alcotest.(check int) "none dropped" 0 r.dropped;
  Alcotest.(check int) "completed" 4 r.metrics.Service.completed;
  Alcotest.(check int) "peak live" 1 r.peak_live;
  Alcotest.(check bool) "queue bounded" true (r.peak_queue <= 1);
  (* FCFS on one machine: completions at 1,2,3,4; all released at 0. *)
  Alcotest.(check (float 1e-9)) "sum flow" 10.0 r.metrics.Service.sum_flow;
  Alcotest.(check (float 1e-9)) "makespan" 4.0 r.metrics.Service.makespan

let test_shed_policy () =
  (* One slot, queue of one: when job 2 arrives, the pending queue holds
     job 1 (size 5); shedding evicts the largest pending job, so job 2
     (size 2) takes its place and completes. *)
  let cfg =
    Service.config ~platform:(uni_platform [ 1.0 ]) ~policy:Service.Shed
      ~rule:Service.Fcfs ~max_live:1 ~queue_cap:1 ()
  in
  let r =
    Service.run cfg
      (Source.of_list (items_of [ (0.0, 1.0); (0.0, 5.0); (0.0, 2.0) ]))
  in
  Alcotest.(check int) "shed" 1 r.shed;
  Alcotest.(check int) "completed" 2 r.metrics.Service.completed;
  Alcotest.(check (float 1e-9)) "makespan (1 then 2)" 3.0
    r.metrics.Service.makespan

let test_agrees_with_sim () =
  (* Fault-free, capacity above the job count: the daemon and the batch
     engine drive the same kernel and the same rule engine, so per-job
     completion times are bit identical — metrics must agree {e
     exactly}, not to a tolerance.  The two sides do sum metrics in
     different orders (job id vs completion order), so the workloads are
     dyadic end to end: unit speeds (rates 1.0 or 2.0), dyadic releases
     and power-of-two sizes make every flow, stretch and partial sum
     exactly representable, and exact float addition is
     order-independent.  Distinct releases and sizes keep the tie-breaks
     (job id vs slot id) out of play. *)
  let agree what platform jobs_spec =
    List.iter
      (fun (rule, sched) ->
        let cfg = Service.config ~platform ~rule ~max_live:16 () in
        let items =
          List.map
            (fun (r, w, d) -> { Source.release = r; size = w; databank = d })
            jobs_spec
        in
        let r = Service.run cfg (Source.of_list items) in
        let inst =
          Instance.make ~platform
            ~jobs:
              (List.mapi
                 (fun i (rl, w, d) -> Job.make ~id:i ~release:rl ~size:w ~databank:d)
                 jobs_spec)
        in
        let sim = Sim.run_report_flat sched inst in
        let exact field a b =
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s %s %s" what (Service.rule_name rule) field)
            b a
        in
        Alcotest.(check int)
          (Printf.sprintf "%s %s completed" what (Service.rule_name rule))
          (List.length jobs_spec) r.metrics.Service.completed;
        exact "sum stretch" r.metrics.Service.sum_stretch
          sim.Sim.metrics.Metrics.sum_stretch;
        exact "max stretch" r.metrics.Service.max_stretch
          sim.Sim.metrics.Metrics.max_stretch;
        exact "sum flow" r.metrics.Service.sum_flow
          sim.Sim.metrics.Metrics.sum_flow;
        exact "makespan" r.metrics.Service.makespan
          sim.Sim.metrics.Metrics.makespan)
      [ (Service.Fcfs, List_sched.flat_fcfs); (Service.Spt, List_sched.flat_spt);
        (Service.Srpt, List_sched.flat_srpt);
        (Service.Swpt, List_sched.flat_swpt);
        (Service.Swrpt, List_sched.flat_swrpt) ]
  in
  agree "one databank" (uni_platform [ 1.0; 1.0 ])
    [ (0.0, 4.0, 0); (0.5, 2.0, 0); (1.0, 8.0, 0); (2.5, 0.5, 0);
      (3.0, 16.0, 0); (4.0, 1.0, 0) ];
  (* Restricted availability: machine 2 hosts both databanks, so a grab
     on one databank takes a free host from the other — the cross-databank
     free-host accounting the two drivers share. *)
  let two_databanks =
    Platform.make
      ~machines:
        [ Machine.make ~id:0 ~speed:1.0 ~databanks:[| true; false |];
          Machine.make ~id:1 ~speed:1.0 ~databanks:[| false; true |];
          Machine.make ~id:2 ~speed:1.0 ~databanks:[| true; true |] ]
      ~num_databanks:2
  in
  agree "two databanks" two_databanks
    [ (0.0, 4.0, 0); (0.5, 2.0, 1); (1.0, 8.0, 0); (1.5, 1.0, 1);
      (2.5, 0.5, 0); (3.0, 16.0, 1); (3.5, 32.0, 0); (4.0, 0.25, 1) ]

(* ---- random scenarios for the torture property ------------------------- *)

type scenario = {
  cfg_for : checkpoint:string option -> journal_dir:string option -> Service.config;
  mk_source : cursor:int -> clock:float -> Source.t;
}

let scenario seed =
  let rng k = Splitmix.stream (Splitmix.create (0x5EED1 + seed)) k in
  let sites = 1 + Splitmix.int (rng 0) 4 in
  let dbs = 1 + Splitmix.int (rng 1) 3 in
  let conf = W.Config.make ~sites ~databases:dbs ~availability:0.7 ~density:1.0 () in
  let real = W.Generator.platform (rng 2) conf in
  let platform = real.W.Generator.platform in
  let sizes = real.W.Generator.db_sizes in
  let n = 20 + Splitmix.int (rng 3) 30 in
  let mean =
    Array.fold_left ( +. ) 0.0 sizes /. float_of_int (Array.length sizes)
  in
  let rate =
    Platform.total_speed platform /. mean
    *. (0.3 +. Splitmix.float (rng 4))
  in
  let faults =
    if Splitmix.int (rng 5) 2 = 0 then []
    else begin
      let until = float_of_int n /. rate in
      Fault.poisson (rng 6) ~mtbf:(until /. 2.0) ~mttr:(until /. 8.0)
        ~machines:sites ~until
    end
  in
  let loss = if Splitmix.int (rng 7) 2 = 0 then Fault.Crash else Fault.Pause in
  let policy =
    match Splitmix.int (rng 8) 3 with
    | 0 -> Service.Drop
    | 1 -> Service.Block
    | _ -> Service.Shed
  in
  let rule =
    match Splitmix.int (rng 9) 5 with
    | 0 -> Service.Fcfs
    | 1 -> Service.Spt
    | 2 -> Service.Srpt
    | 3 -> Service.Swpt
    | _ -> Service.Swrpt
  in
  let max_live = 2 + Splitmix.int (rng 10) 8 in
  let queue_cap = Splitmix.int (rng 11) 4 in
  let checkpoint_every = 1 + Splitmix.int (rng 12) 7 in
  let seg_limit = 1 + Splitmix.int (rng 13) 12 in
  let src_seed = (seed * 131) + 7 in
  { cfg_for =
      (fun ~checkpoint ~journal_dir ->
        Service.config ~platform ~rule ~policy ~max_live ~queue_cap ~faults
          ~loss ?checkpoint ?journal_dir ~checkpoint_every ~seg_limit
          ~source_desc:(Printf.sprintf "poisson seed=%d jobs=%d" src_seed n)
          ());
    mk_source =
      (fun ~cursor ~clock ->
        Source.poisson ~seed:src_seed ~rate ~sizes ~jobs:n ~cursor ~clock ()) }

let prop_kill_resume =
  QCheck2.Test.make
    ~name:"daemon killed at a random event resumes bit-identically" ~count:30
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let sc = scenario seed in
      with_tmpdir (fun dir_a ->
          with_tmpdir (fun dir_b ->
              let cfg_a =
                sc.cfg_for ~checkpoint:(Some (Filename.concat dir_a "ckpt"))
                  ~journal_dir:(Some (Filename.concat dir_a "journal"))
              in
              let r_a = Service.run cfg_a (sc.mk_source ~cursor:0 ~clock:0.0) in
              if r_a.outcome <> Service.Drained then
                QCheck2.Test.fail_report "reference run did not drain";
              (* Kill anywhere in [1, events]: after the initial
                 checkpoint exists, up to the very last batch. *)
              let k =
                1 + Splitmix.int (Splitmix.create (seed + 0xDEAD)) r_a.events
              in
              let cfg_b =
                sc.cfg_for ~checkpoint:(Some (Filename.concat dir_b "ckpt"))
                  ~journal_dir:(Some (Filename.concat dir_b "journal"))
              in
              let r_kill =
                Service.run ~stop_after_events:k cfg_b
                  (sc.mk_source ~cursor:0 ~clock:0.0)
              in
              if r_kill.outcome <> Service.Killed then
                QCheck2.Test.fail_report
                  (Printf.sprintf "expected a kill at %d/%d events" k
                     r_a.events);
              let r_b = Service.resume cfg_b sc.mk_source in
              if report_repr r_a <> report_repr r_b then
                QCheck2.Test.fail_report
                  (Printf.sprintf "report diverged after resume at %d/%d:\n%s\n%s"
                     k r_a.events (report_repr r_a) (report_repr r_b));
              let ja = journal_bytes (Filename.concat dir_a "journal") in
              let jb = journal_bytes (Filename.concat dir_b "journal") in
              if ja <> jb then
                QCheck2.Test.fail_report
                  (Printf.sprintf "journal diverged after resume at %d/%d" k
                     r_a.events);
              if
                Fsio.read_file (Filename.concat dir_a "ckpt")
                <> Fsio.read_file (Filename.concat dir_b "ckpt")
              then
                QCheck2.Test.fail_report "final checkpoints differ";
              true)))

let test_double_kill_resume () =
  (* A resumed daemon is itself killable: kill, resume, kill the resumed
     run, resume again — still bit-identical. *)
  let sc = scenario 42 in
  with_tmpdir (fun dir_a ->
      with_tmpdir (fun dir_b ->
          let cfg dir =
            sc.cfg_for ~checkpoint:(Some (Filename.concat dir "ckpt"))
              ~journal_dir:(Some (Filename.concat dir "journal"))
          in
          let r_a = Service.run (cfg dir_a) (sc.mk_source ~cursor:0 ~clock:0.0) in
          let k1 = r_a.events / 3 and k2 = 2 * r_a.events / 3 in
          let r1 =
            Service.run ~stop_after_events:(max 1 k1) (cfg dir_b)
              (sc.mk_source ~cursor:0 ~clock:0.0)
          in
          Alcotest.(check bool) "first kill" true (r1.outcome = Service.Killed);
          let r2 =
            Service.resume ~stop_after_events:(max 2 k2) (cfg dir_b) sc.mk_source
          in
          Alcotest.(check bool) "second kill" true (r2.outcome = Service.Killed);
          let r_b = Service.resume (cfg dir_b) sc.mk_source in
          Alcotest.(check string) "report identical after two kills"
            (report_repr r_a) (report_repr r_b);
          Alcotest.(check string) "journal identical after two kills"
            (journal_bytes (Filename.concat dir_a "journal"))
            (journal_bytes (Filename.concat dir_b "journal"))))

let test_replay_verifies_journal () =
  (* No-drop run: external ids coincide with instance job ids, so the
     spilled journal replays into a valid schedule whose metrics match
     the daemon's online accumulators. *)
  let sc = scenario 7 in
  (* Rebuild the full item list to construct the reference instance. *)
  let src = sc.mk_source ~cursor:0 ~clock:0.0 in
  let items = ref [] in
  let rec drain () =
    match Source.next src with
    | Some it -> items := it :: !items; drain ()
    | None -> ()
  in
  drain ();
  let items = List.rev !items in
  let n = List.length items in
  with_tmpdir (fun dir ->
      let base =
        sc.cfg_for ~checkpoint:None
          ~journal_dir:(Some (Filename.concat dir "journal"))
      in
      (* Override admission so nothing is ever dropped or queued. *)
      let cfg =
        { base with Service.max_live = n; policy = Service.Drop; faults = [];
          queue_cap = 0 }
      in
      let r = Service.run cfg (sc.mk_source ~cursor:0 ~clock:0.0) in
      Alcotest.(check int) "all admitted" n r.admitted;
      Alcotest.(check int) "all completed" n r.metrics.Service.completed;
      let inst =
        Instance.make ~platform:cfg.Service.platform
          ~jobs:
            (List.mapi
               (fun i (it : Source.item) ->
                 Job.make ~id:i ~release:it.release ~size:it.size
                   ~databank:it.databank)
               items)
      in
      let evs = Service.read_journal ~dir:(Filename.concat dir "journal") in
      let sched = Replay.schedule_of_journal inst evs in
      Alcotest.(check (list string)) "replayed schedule is valid" []
        (Schedule.validate sched);
      let m = Metrics.of_schedule sched in
      let close what a b =
        Alcotest.(check bool)
          (Printf.sprintf "%s: %.12g vs %.12g" what a b)
          true
          (abs_float (a -. b) <= 1e-9 *. Float.max 1.0 (abs_float b))
      in
      close "sum stretch" r.metrics.Service.sum_stretch m.Metrics.sum_stretch;
      close "max stretch" r.metrics.Service.max_stretch m.Metrics.max_stretch;
      close "sum flow" r.metrics.Service.sum_flow m.Metrics.sum_flow;
      close "makespan" r.metrics.Service.makespan m.Metrics.makespan)

let test_horizon_resume () =
  (* A horizon stop is a clean checkpointed pause: resuming with a wider
     horizon finishes the run with the same metrics as never stopping. *)
  let sc = scenario 3 in
  with_tmpdir (fun dir_a ->
      with_tmpdir (fun dir_b ->
          let cfg dir horizon =
            let c =
              sc.cfg_for ~checkpoint:(Some (Filename.concat dir "ckpt"))
                ~journal_dir:(Some (Filename.concat dir "journal"))
            in
            { c with Service.horizon }
          in
          let r_a = Service.run (cfg dir_a None) (sc.mk_source ~cursor:0 ~clock:0.0) in
          let h = r_a.final_time /. 2.0 in
          let r_stop =
            Service.run (cfg dir_b (Some h)) (sc.mk_source ~cursor:0 ~clock:0.0)
          in
          Alcotest.(check bool) "stopped at horizon" true
            (r_stop.outcome = Service.Horizon_reached);
          Alcotest.(check bool) "stopped early" true
            (r_stop.final_time <= h +. 1e-9);
          let r_b = Service.resume (cfg dir_b None) sc.mk_source in
          Alcotest.(check bool) "drained after resume" true
            (r_b.outcome = Service.Drained);
          (* The horizon pause adds checkpoint writes, so compare the
             workload-determined fields, not the checkpoint count. *)
          Alcotest.(check int) "completed" r_a.metrics.Service.completed
            r_b.metrics.Service.completed;
          Alcotest.(check (float 0.0)) "sum stretch"
            r_a.metrics.Service.sum_stretch r_b.metrics.Service.sum_stretch;
          Alcotest.(check (float 0.0)) "makespan" r_a.metrics.Service.makespan
            r_b.metrics.Service.makespan;
          Alcotest.(check int) "events" r_a.events r_b.events;
          Alcotest.(check string) "journal identical"
            (journal_bytes (Filename.concat dir_a "journal"))
            (journal_bytes (Filename.concat dir_b "journal"))))

let test_checkpoint_corruption_detected () =
  let sc = scenario 11 in
  with_tmpdir (fun dir ->
      let ckpt = Filename.concat dir "ckpt" in
      let cfg = sc.cfg_for ~checkpoint:(Some ckpt) ~journal_dir:None in
      let r =
        Service.run ~stop_after_events:5 cfg (sc.mk_source ~cursor:0 ~clock:0.0)
      in
      Alcotest.(check bool) "killed" true (r.outcome = Service.Killed);
      let original = Fsio.read_file ckpt in
      let expect_failure what =
        match Service.resume cfg sc.mk_source with
        | _ -> Alcotest.failf "%s accepted" what
        | exception Failure _ -> ()
      in
      (* Flip one payload byte: the checksum must catch it. *)
      let tampered = Bytes.of_string original in
      let i = String.length original - 2 in
      Bytes.set tampered i (if Bytes.get tampered i = '0' then '1' else '0');
      Fsio.write_atomic ~path:ckpt (Bytes.to_string tampered);
      expect_failure "tampered checkpoint";
      (* Truncate mid-payload: the length check must catch it. *)
      Fsio.write_atomic ~path:ckpt
        (String.sub original 0 (String.length original - 10));
      expect_failure "truncated checkpoint";
      (* Mismatched configuration: the fingerprint must catch it. *)
      Fsio.write_atomic ~path:ckpt original;
      let other =
        { cfg with
          Service.rule =
            (if cfg.Service.rule = Service.Fcfs then Service.Spt
             else Service.Fcfs) }
      in
      (match Service.resume other sc.mk_source with
       | _ -> Alcotest.fail "fingerprint mismatch accepted"
       | exception Failure m ->
         Alcotest.(check bool) "names the fingerprint" true
           (let re = "fingerprint" in
            let rec find i =
              i + String.length re <= String.length m
              && (String.sub m i (String.length re) = re || find (i + 1))
            in
            find 0));
      (* Intact checkpoint, intact config: resume completes. *)
      let r2 = Service.resume cfg sc.mk_source in
      Alcotest.(check bool) "clean resume drains" true
        (r2.outcome = Service.Drained));
  (* Impossible slot-pool states behind a valid seal: the checksum
     passes, so restore's consistency checks must refuse them before any
     event runs.  Pinned fixture: FCFS on one machine, four slots, the
     checkpoint taken at t = 0 with jobs 0 and 1 in slots 0 and 1 (job 0
     running) and slots 3, 2 on the free stack. *)
  with_tmpdir (fun dir ->
      let ckpt = Filename.concat dir "ckpt" in
      let cfg =
        Service.config ~platform:(uni_platform [ 1.0 ]) ~rule:Service.Fcfs
          ~max_live:4 ~checkpoint:ckpt ~checkpoint_every:1 ()
      in
      let items = items_of [ (0.0, 4.0); (0.0, 8.0); (1.0, 2.0) ] in
      let source ~cursor ~clock:_ = Source.of_list ~skip:cursor items in
      let r =
        Service.run ~stop_after_events:3 cfg (source ~cursor:0 ~clock:0.0)
      in
      Alcotest.(check bool) "fixture killed" true (r.outcome = Service.Killed);
      let original = Fsio.read_file ckpt in
      let reseal ~from ~into =
        let i = String.index original '\n' in
        let lines =
          String.split_on_char '\n'
            (String.sub original (i + 1) (String.length original - i - 1))
        in
        if not (List.mem from lines) then
          Alcotest.failf "fixture checkpoint has no line %S" from;
        let payload =
          String.concat "\n" (List.map (fun l -> if l = from then into else l) lines)
        in
        match String.split_on_char ' ' (String.sub original 0 i) with
        | [ magic; version; fp; _; _ ] ->
          Fsio.write_atomic ~path:ckpt
            (Printf.sprintf "%s %s %s %d %s\n%s" magic version fp
               (String.length payload) (Fsio.fnv64 payload) payload)
        | _ -> Alcotest.fail "malformed checkpoint header"
      in
      let expect_failure what =
        match Service.resume cfg source with
        | _ -> Alcotest.failf "%s accepted" what
        | exception Failure _ -> ()
      in
      reseal ~from:"free 2 3 2" ~into:"free 2 3 3";
      expect_failure "free stack listing a slot twice";
      reseal ~from:"slot 1 1 0 8 0 8" ~into:"slot 0 1 0 8 0 8";
      expect_failure "two slot records for one slot";
      reseal ~from:"slot 1 1 0 8 0 8" ~into:"slot 1 -1 0 8 0 8";
      expect_failure "negative external id";
      (* Floats outside their domains: a job of size 0, more work left
         than the job has, NaN work, a machine given 5 times over. *)
      reseal ~from:"slot 1 1 0 8 0 8" ~into:"slot 1 1 0 0 0 0";
      expect_failure "size 0";
      reseal ~from:"slot 1 1 0 8 0 8" ~into:"slot 1 1 0 8 0 9";
      expect_failure "remaining 9 of 8";
      reseal ~from:"slot 1 1 0 8 0 8" ~into:"slot 1 1 0 8 0 nan";
      expect_failure "NaN remaining";
      reseal ~from:"pentry 0 1 0 1" ~into:"pentry 0 1 0 5";
      expect_failure "share 5";
      Fsio.write_atomic ~path:ckpt original;
      let r2 = Service.resume cfg source in
      Alcotest.(check int) "fixture resumes to drain" 3
        r2.metrics.Service.completed)

let test_bounded_memory_counters () =
  (* An overloaded drop run never exceeds its configured capacities even
     with ~10x more jobs than slots. *)
  let platform = uni_platform [ 1.0 ] in
  let cfg =
    Service.config ~platform ~rule:Service.Swrpt ~policy:Service.Drop
      ~max_live:4 ~queue_cap:2 ()
  in
  let src =
    Source.poisson ~seed:5 ~rate:8.0 ~sizes:[| 1.0 |] ~jobs:200 ()
  in
  let r = Service.run cfg src in
  Alcotest.(check bool) "live bounded" true (r.peak_live <= 4);
  Alcotest.(check bool) "queue bounded" true (r.peak_queue <= 2);
  Alcotest.(check int) "every job accounted" 200
    (r.admitted + r.dropped);
  Alcotest.(check int) "source fully consumed" 200 r.source_cursor;
  Alcotest.(check int) "completions = admissions" r.admitted
    r.metrics.Service.completed

(* The same bounds at full size: the seed-42 3-cluster platform, SWRPT
   with Drop, 4096 slots and a 1024-deep queue, 200,000 Poisson jobs at
   0.9 x total speed / mean databank size.  That rate is an overload,
   not 90% utilization: databank 0 carries 62% of the work but is
   hosted only on the two slowest clusters.  So the pool and the queue
   both fill, and reaching each bound is what gives it meaning.  The
   daemon still drains, and its loop stays off the minor heap. *)
let test_overload_at_scale () =
  let c =
    W.Config.make ~sites:3 ~databases:3 ~availability:0.6 ~density:1.0
      ~horizon:60.0 ()
  in
  let real = W.Generator.platform (Splitmix.create 42) c in
  let platform = real.W.Generator.platform in
  let sizes = real.W.Generator.db_sizes in
  let mean_size =
    Array.fold_left ( +. ) 0.0 sizes /. float_of_int (Array.length sizes)
  in
  let rate = 0.9 *. Platform.total_speed platform /. mean_size in
  let cfg =
    Service.config ~platform ~rule:Service.Swrpt ~policy:Service.Drop
      ~max_live:4096 ~queue_cap:1024 ()
  in
  let src = Source.poisson ~seed:42 ~rate ~sizes ~jobs:200_000 () in
  let w0 = Gc.minor_words () in
  let r = Service.run cfg src in
  let per_event = (Gc.minor_words () -. w0) /. float_of_int r.events in
  Alcotest.(check int) "pool fills to max-live" 4096 r.peak_live;
  Alcotest.(check int) "queue fills to queue-cap" 1024 r.peak_queue;
  Alcotest.(check bool) "drained" true (r.outcome = Service.Drained);
  Alcotest.(check bool)
    (Printf.sprintf "%.4f minor words/event <= 3.0" per_event)
    true (per_event <= 3.0)

(* ---- pinned bytes ------------------------------------------------------ *)

(* Two databanks, machine 2 hosting both; crash edges on every machine;
   an overloaded stream into a 3-slot pool with a 2-deep queue, so
   arrivals, enqueues, drops or sheds, failures, recoveries and
   segments that skip a crashing machine all reach the journal.  Windows
   of 16 events hold 34 to 48 records, so the 21-record segments roll
   mid-flush, and under Drop three windows end on a full segment, so
   the next window's first record opens a new file. *)
let pinned_platform =
  Platform.make
    ~machines:
      [ Machine.make ~id:0 ~speed:1.0 ~databanks:[| true; false |];
        Machine.make ~id:1 ~speed:2.0 ~databanks:[| false; true |];
        Machine.make ~id:2 ~speed:1.5 ~databanks:[| true; true |] ]
    ~num_databanks:2

let pinned_faults =
  [ { Fault.time = 4.0; machine = 2; up = false };
    { Fault.time = 9.5; machine = 2; up = true };
    { Fault.time = 15.25; machine = 0; up = false };
    { Fault.time = 21.0; machine = 0; up = true };
    { Fault.time = 30.0; machine = 1; up = false };
    { Fault.time = 33.0; machine = 1; up = true } ]

(* FNV-64 of every segment and of the final checkpoint, as the
   [Printf]-based writers produced them. *)
let pinned_digests =
  [ ( Service.Drop,
      [ ("seg-000000.jsonl", "0b114d915bc09e39");
        ("seg-000001.jsonl", "8c260961da75d753");
        ("seg-000002.jsonl", "ce31b046dfe9c48b");
        ("seg-000003.jsonl", "6b08b6615dc0932c");
        ("seg-000004.jsonl", "4b5d6feca4cf6ce6");
        ("seg-000005.jsonl", "5b55660acee8e843");
        ("seg-000006.jsonl", "a9e4eb30617ad5fa");
        ("seg-000007.jsonl", "fae12a0fe707fe61");
        ("seg-000008.jsonl", "6aedcfd7eb1d9b43");
        ("seg-000009.jsonl", "286f75a26f4eefec");
        ("seg-000010.jsonl", "155b5135235bf4be");
        ("seg-000011.jsonl", "65f761aab02b8edf");
        ("seg-000012.jsonl", "55a1952d113dcaf5");
        ("seg-000013.jsonl", "0b5f973e4d692a6b");
        ("seg-000014.jsonl", "6365ae6055bc581b");
        ("seg-000015.jsonl", "0043fac1acb4f9e4");
        ("seg-000016.jsonl", "e6d0c4ec6dd21a0e");
        ("seg-000017.jsonl", "64d2f6872afbe226") ],
      "64bb6f416f5ad61c" );
    ( Service.Shed,
      [ ("seg-000000.jsonl", "0b114d915bc09e39");
        ("seg-000001.jsonl", "d6d0e2f958d75271");
        ("seg-000002.jsonl", "42f44dd3c58b6781");
        ("seg-000003.jsonl", "f0a689705ea38cef");
        ("seg-000004.jsonl", "00583fac3f1bb766");
        ("seg-000005.jsonl", "db70fd03e182762f");
        ("seg-000006.jsonl", "b155b3493da88ed6");
        ("seg-000007.jsonl", "c25c6f46b28aec66");
        ("seg-000008.jsonl", "f6cfe0a352f84b81");
        ("seg-000009.jsonl", "017a06b9d39f7492");
        ("seg-000010.jsonl", "242b06b503c3ac70");
        ("seg-000011.jsonl", "a6afbcc70f929119");
        ("seg-000012.jsonl", "04c8b4a516acedc8");
        ("seg-000013.jsonl", "eda19c8652910054");
        ("seg-000014.jsonl", "1ed74c0d44baf101");
        ("seg-000015.jsonl", "8f2e34de9060d769");
        ("seg-000016.jsonl", "6e4a94fe3160a2e1");
        ("seg-000017.jsonl", "3c29dd1edef07cd4") ],
      "ff4f2087a0f67169" ) ]

let test_pinned_bytes () =
  List.iter
    (fun (policy, segments, checkpoint) ->
      with_tmpdir (fun dir ->
          let ckpt = Filename.concat dir "ckpt"
          and jdir = Filename.concat dir "journal" in
          let cfg =
            Service.config ~platform:pinned_platform ~rule:Service.Swrpt ~policy
              ~max_live:3 ~queue_cap:2 ~faults:pinned_faults ~loss:Fault.Crash
              ~checkpoint:ckpt ~checkpoint_every:16 ~journal_dir:jdir
              ~seg_limit:21 ~source_desc:"pinned" ()
          in
          let r =
            Service.run cfg
              (Source.poisson ~seed:2024 ~rate:1.2 ~sizes:[| 3.0; 5.0 |] ~jobs:60 ())
          in
          let what = Service.policy_name policy in
          Alcotest.(check bool) (what ^ ": overload and crash loss occur") true
            (r.enqueued > 0 && r.dropped + r.shed > 0 && r.lost_work > 0.0);
          Alcotest.(check (list (pair string string))) (what ^ ": segments")
            segments
            (List.map
               (fun p -> (Filename.basename p, Fsio.fnv64 (Fsio.read_file p)))
               (Service.segment_files ~dir:jdir));
          Alcotest.(check string) (what ^ ": final checkpoint") checkpoint
            (Fsio.fnv64 (Fsio.read_file ckpt))))
    pinned_digests

(* A whole checkpoint as the [Printf] writer printed it.  Machine 1's
   downtime never ends, so the remaining trace holds a repair at
   infinity, which [%.17g] prints as "inf". *)
let test_checkpoint_text_pinned () =
  with_tmpdir (fun dir ->
      let ckpt = Filename.concat dir "ckpt" in
      let platform =
        Platform.make
          ~machines:
            [ Machine.make ~id:0 ~speed:1.0 ~databanks:[| true |];
              Machine.with_downtime
                (Machine.make ~id:1 ~speed:1.0 ~databanks:[| true |])
                [ (1.5, infinity) ] ]
          ~num_databanks:1
      in
      let cfg =
        Service.config ~platform ~rule:Service.Fcfs ~max_live:4 ~checkpoint:ckpt
          ~checkpoint_every:1 ()
      in
      let r = Service.run cfg (Source.of_list (items_of [ (0.0, 3.0); (0.5, 1.0) ])) in
      Alcotest.(check bool) "drained" true (r.outcome = Service.Drained);
      Alcotest.(check string) "final checkpoint"
        "gripps-ckpt 1 434212c891b5d511 177 ed459757c478e31b\n\
         now 3.5\n\
         counts 5 5 7 0\n\
         metrics 2 3.8333333333333335 3 5.5 3 3.5 1\n\
         admission 2 0 0 0 2 0\n\
         source 2 0.5\n\
         up 1 0\n\
         faults 1\n\
         fault inf 1 1\n\
         live 0\n\
         free 4 3 2 0 1\n\
         queue 0\n\
         plan 0\n\
         jseg 0 0\n"
        (Fsio.read_file ckpt))

(* ---- resealed mutations ------------------------------------------------ *)

(* A checkpoint resealed after an edit (length and FNV-64 recomputed)
   gets past the seal, so only restore's field domains and consistency
   checks stand between it and the daemon.  Every payload prefix, and
   every field set in turn to each hostile value, must resume into a
   report, a [Failure] or [Stalled]: never another exception, and never
   a loop that [stop_after_events] cannot stop.  Fixture: the pinned
   platform with machine 1's fault edges, SWRPT under Shed, killed at
   event 25 (fault edges, full slots, a queue and a plan on file) and at
   event 10 (a slot on the free stack). *)
let mutation_values =
  [ "-1"; "7"; "nan"; "inf"; "-inf"; "1e308"; "x"; "99999999999999999999"; "0" ]

let test_resealed_mutations () =
  with_tmpdir (fun dir ->
      let ckpt = Filename.concat dir "ckpt" in
      let cfg every =
        Service.config ~platform:pinned_platform ~rule:Service.Swrpt
          ~policy:Service.Shed ~max_live:3 ~queue_cap:2
          ~faults:
            (List.filter (fun (e : Fault.edge) -> e.machine = 1) pinned_faults)
          ~checkpoint:ckpt ~checkpoint_every:every ~source_desc:"pinned" ()
      in
      let source ~cursor ~clock =
        Source.poisson ~seed:2024 ~rate:1.2 ~sizes:[| 3.0; 5.0 |] ~jobs:60
          ~cursor ~clock ()
      in
      (* The checkpoint left by a kill at event [kill]: the header's
         magic, version and fingerprint, and the payload's lines. *)
      let fixture ~kill ~holds =
        let r =
          Service.run ~stop_after_events:kill (cfg 1)
            (source ~cursor:0 ~clock:0.0)
        in
        Alcotest.(check bool) "fixture killed" true
          (r.outcome = Service.Killed);
        let raw = Fsio.read_file ckpt in
        let i = String.index raw '\n' in
        let lines =
          String.split_on_char '\n'
            (String.sub raw (i + 1) (String.length raw - i - 1))
        in
        List.iter
          (fun p ->
            if not (List.exists (String.starts_with ~prefix:p) lines) then
              Alcotest.failf "fixture at event %d has no %S record" kill p)
          holds;
        match String.split_on_char ' ' (String.sub raw 0 i) with
        | [ magic; version; fp; _; _ ] ->
          (String.concat " " [ magic; version; fp ], lines)
        | _ -> Alcotest.fail "malformed checkpoint header"
      in
      (* A plain write: [Fsio.write_atomic]'s fsync would dominate the
         sweep.  The resumed run checkpoints only at its end. *)
      let resumes seal what payload =
        Out_channel.with_open_bin ckpt (fun oc ->
            Printf.fprintf oc "%s %d %s\n%s" seal (String.length payload)
              (Fsio.fnv64 payload) payload);
        match Service.resume ~stop_after_events:200 (cfg max_int) source with
        | _ -> ()
        | exception (Failure _ | Service.Stalled _) -> ()
        | exception e -> Alcotest.failf "%s: %s" what (Printexc.to_string e)
      in
      (* The payload with word [k] of line [li] (word 0 is the tag) set
         to [v]. *)
      let set_field lines li k v =
        String.concat "\n"
          (List.mapi
             (fun j l ->
               if j <> li then l
               else
                 String.concat " "
                   (List.mapi (fun i w -> if i = k then v else w)
                      (String.split_on_char ' ' l)))
             lines)
      in
      List.iter
        (fun (kill, holds) ->
          let seal, lines = fixture ~kill ~holds in
          let payload = String.concat "\n" lines in
          for len = 0 to String.length payload - 1 do
            resumes seal
              (Printf.sprintf "kill %d, prefix of %d bytes" kill len)
              (String.sub payload 0 len)
          done;
          List.iteri
            (fun li line ->
              List.iteri
                (fun k _ ->
                  if k > 0 then
                    List.iter
                      (fun v ->
                        resumes seal
                          (Printf.sprintf "kill %d, line %d field %d = %s" kill
                             (li + 2) k v)
                          (set_field lines li k v))
                      mutation_values)
                (String.split_on_char ' ' line))
            lines)
        [ (25, [ "fault "; "slot "; "qitem "; "pentry " ]);
          (10, [ "fault "; "slot "; "pentry "; "free 1 " ]) ])

(* ---- allocation gates --------------------------------------------------- *)

let gate_source jobs = Source.poisson ~seed:3 ~rate:0.8 ~sizes:[| 3.0; 5.0 |] ~jobs ()

(* Journal records are encoded as they are made, so none should live
   long enough to be promoted: a window of boxed records held until the
   checkpoint spill promoted about 95 words per event. *)
let test_journal_promotes_nothing () =
  with_tmpdir (fun dir ->
      let cfg =
        Service.config ~platform:pinned_platform ~rule:Service.Swrpt
          ~checkpoint:(Filename.concat dir "ckpt")
          ~journal_dir:(Filename.concat dir "journal") ()
      in
      let src = gate_source 20_000 in
      let _, p0, _ = Gc.counters () in
      let r = Service.run cfg src in
      let _, p1, _ = Gc.counters () in
      let per_event = (p1 -. p0) /. float_of_int r.events in
      Alcotest.(check bool)
        (Printf.sprintf "%.3f promoted words/event < 1" per_event)
        true (per_event < 1.0))

(* The checkpoint path allocates per checkpoint, not per field: the
   bound is the one [test_overload_at_scale] holds the daemon's loop
   to. *)
let test_checkpoint_allocation () =
  with_tmpdir (fun dir ->
      let cfg =
        Service.config ~platform:pinned_platform ~rule:Service.Swrpt
          ~checkpoint:(Filename.concat dir "ckpt") ~checkpoint_every:4096 ()
      in
      let src = gate_source 40_000 in
      let w0 = Gc.minor_words () in
      let r = Service.run cfg src in
      let per_event = (Gc.minor_words () -. w0) /. float_of_int r.events in
      Alcotest.(check bool) "checkpoints written" true (r.checkpoints >= 10);
      Alcotest.(check bool)
        (Printf.sprintf "%.3f minor words/event <= 3.0" per_event)
        true (per_event <= 3.0))

let suite =
  ( "service",
    [ Alcotest.test_case "drains a simple stream" `Quick test_drains_simple;
      Alcotest.test_case "drop policy" `Quick test_drop_policy;
      Alcotest.test_case "block policy" `Quick test_block_policy;
      Alcotest.test_case "shed policy" `Quick test_shed_policy;
      Alcotest.test_case "agrees with the batch engine" `Quick
        test_agrees_with_sim;
      QCheck_alcotest.to_alcotest prop_kill_resume;
      Alcotest.test_case "double kill and resume" `Quick test_double_kill_resume;
      Alcotest.test_case "journal replays into the online metrics" `Quick
        test_replay_verifies_journal;
      Alcotest.test_case "horizon stop resumes cleanly" `Quick
        test_horizon_resume;
      Alcotest.test_case "corrupt checkpoints are rejected" `Quick
        test_checkpoint_corruption_detected;
      Alcotest.test_case "memory bounds hold under overload" `Quick
        test_bounded_memory_counters;
      Alcotest.test_case "overload fills pool and queue, drains" `Quick
        test_overload_at_scale;
      Alcotest.test_case "segment and checkpoint bytes pinned" `Quick
        test_pinned_bytes;
      Alcotest.test_case "checkpoint text pinned" `Quick
        test_checkpoint_text_pinned;
      Alcotest.test_case "resealed checkpoint mutations" `Quick
        test_resealed_mutations;
      Alcotest.test_case "journaled run promotes nothing" `Quick
        test_journal_promotes_nothing;
      Alcotest.test_case "checkpoint path allocation" `Quick
        test_checkpoint_allocation ] )
