(* Workloads [serve] and [serve_journal]: the crash-safe daemon fed by the
   open-loop Poisson source, drained in simulated time as fast as the
   host allows.  [serve] checkpoints every 65,536 events with the
   journal off; [serve_journal] checkpoints every 4096 events (the CLI
   default) and also rotates the journal into on-disk segments, the only
   workload where the journal layer works. *)

open Harness
module W = Gripps_workload
module Svc = Gripps_service.Service
module Obs = Gripps_obs.Obs
module J = Obs.Journal
module Fsio = Gripps_obs.Fsio

type spec = { name : string; jobs : int; every : int; journal : bool }

(* [serve] does not checkpoint at the CLI default of every 4096 events:
   that is 978 checkpoints per run, each serialized, written and
   fsync'd, about two thirds of its time, and the cost of that path
   drifts with the host's load: over seeds the run's time spread by
   9-17%, against about 1% with checkpoints off.  At 65,536 the
   checkpoint path is about a fifth of the time and the spread 1-4%. *)
let serve = { name = "serve"; jobs = 2_000_000; every = 65_536; journal = false }
let serve_journal = { name = "serve_journal"; jobs = 100_000; every = 4096; journal = true }

(* The platform [bench/main.exe serve] pins (seed 42); the seed draws the
   job stream.  The rate is 55% of nominal capacity (total speed / mean
   size).  Databank 0 (744 MB, 62% of the work) has replicas only on the
   two slowest clusters (15 + 9 of 48 MB/s), so the nominal figure
   overstates what the daemon can absorb: nothing drops up to 65%, and
   at 70% the pool and the queue fill and jobs are dropped. *)
let platform_seed = 42
let load = 0.55

type inputs = { platform : Gripps_model.Platform.t; sizes : float array; rate : float }

(* The first daemon run after set-up took up to 25% longer than the
   runs after it. *)
let warmup = 1

let dir spec = work_path spec.name
let ckpt spec = Filename.concat (dir spec) "daemon.ckpt"
let jdir spec = Filename.concat (dir spec) "journal"

let setup spec ~seed:_ =
  let c =
    W.Config.make ~sites:3 ~databases:3 ~availability:0.6 ~density:1.0 ~horizon:60.0 ()
  in
  let real = W.Generator.platform (Gripps_rng.Splitmix.create platform_seed) c in
  let sizes = real.W.Generator.db_sizes in
  let mean = Array.fold_left ( +. ) 0.0 sizes /. float_of_int (Array.length sizes) in
  (* The daemon itself clears stale journal segments and overwrites the
     checkpoint.  Emptying the directory here made set-up swing between
     60 and 250 us with the filesystem's state. *)
  if not (Sys.file_exists (dir spec)) then Sys.mkdir (dir spec) 0o755;
  { platform = real.W.Generator.platform; sizes;
    rate = load *. Gripps_model.Platform.total_speed real.W.Generator.platform /. mean }

let source spec ~seed i = W.Source.poisson ~seed ~rate:i.rate ~sizes:i.sizes ~jobs:spec.jobs ()

let config spec ~seed ?(checkpoint = true) ?(journal = spec.journal) i =
  Svc.config ~platform:i.platform ~rule:Svc.Swrpt ~policy:Svc.Drop ~max_live:4096
    ~queue_cap:1024 ~checkpoint_every:spec.every
    ?checkpoint:(if checkpoint then Some (ckpt spec) else None)
    ?journal_dir:(if journal then Some (jdir spec) else None)
    ~source_desc:(Printf.sprintf "perfbench:%s:seed=%d:jobs=%d" spec.name seed spec.jobs)
    ()

type output = Svc.report option

(* Segment names, sizes and FNV-64 digests, in order. *)
let journal_digest spec =
  if not (Sys.file_exists (jdir spec)) then []
  else
    List.concat_map
      (fun path ->
        let bytes, fnv64 = Refcheck.digest_file path in
        let k = Filename.basename path in
        [ Refcheck.int (k ^ ".bytes") bytes; Refcheck.string (k ^ ".fnv64") fnv64 ])
      (Svc.segment_files ~dir:(jdir spec))

let daemon spec ~seed ?checkpoint ?journal i =
  Svc.run (config spec ~seed ?checkpoint ?journal i) (source spec ~seed i)

let unit spec ~seed ~traced i : output =
  let run () =
    match daemon spec ~seed i with
    | r -> Some r
    | exception e ->
      complain "%s: daemon raised %s" spec.name (Printexc.to_string e);
      None
  in
  if traced then span "serve.run" run else run ()

let events (o : output) = match o with Some r -> r.Svc.events | None -> 0

(* ---- correctness ---------------------------------------------------------- *)

(* The run's report, final checkpoint and journal segments; read right
   after the run, before the next one rewrites the files. *)
let as_ref spec (r : Svc.report) =
  let x = r.Svc.metrics in
  [ Refcheck.string "outcome"
      (match r.Svc.outcome with
       | Svc.Drained -> "drained"
       | Svc.Horizon_reached -> "horizon"
       | Svc.Killed -> "killed");
    Refcheck.int "completed" x.Svc.completed;
    Refcheck.float "sum_stretch" x.Svc.sum_stretch;
    Refcheck.float "max_stretch" x.Svc.max_stretch;
    Refcheck.float "sum_flow" x.Svc.sum_flow;
    Refcheck.float "max_flow" x.Svc.max_flow;
    Refcheck.float "makespan" x.Svc.makespan;
    Refcheck.int "admitted" r.Svc.admitted; Refcheck.int "enqueued" r.Svc.enqueued;
    Refcheck.int "dropped" r.Svc.dropped; Refcheck.int "shed" r.Svc.shed;
    Refcheck.int "peak_live" r.Svc.peak_live; Refcheck.int "peak_queue" r.Svc.peak_queue;
    Refcheck.int "events" r.Svc.events; Refcheck.int "replans" r.Svc.replans;
    Refcheck.int "checkpoints" r.Svc.checkpoints;
    Refcheck.float "lost_work" r.Svc.lost_work;
    Refcheck.float "final_time" r.Svc.final_time;
    Refcheck.int "source_cursor" r.Svc.source_cursor ]
  @ journal_digest spec

let capture spec ~seed (o : output) =
  write_ref spec.name ~seed "ref" (Refcheck.to_string (as_ref spec (Option.get o)));
  write_ref spec.name ~seed "ckpt" (read_file (ckpt spec))

type reference = { kv : Refcheck.t; ckpt : string }

let load_reference spec ~seed =
  match (read_ref spec.name ~seed "ref", read_ref spec.name ~seed "ckpt") with
  | Some kv, Some ckpt -> Some { kv = Refcheck.of_string kv; ckpt }
  | _ -> None

(* One operation per offered job.  A job fails when it is dropped, shed
   or never completes; with a reference for the seed, the whole run
   fails when its report, final checkpoint or journal differs by one
   bit. *)
let check spec (rf : reference option) (o : output) =
  match o with
  | None -> attempt spec.jobs ~failed:spec.jobs
  | Some r ->
    let lost = spec.jobs - r.Svc.metrics.Svc.completed in
    if lost > 0 || r.Svc.dropped > 0 || r.Svc.shed > 0 || r.Svc.outcome <> Svc.Drained then
      complain "%s: %d of %d jobs not completed (%d dropped, %d shed)" spec.name lost spec.jobs
        r.Svc.dropped r.Svc.shed;
    let bad = max lost (r.Svc.dropped + r.Svc.shed) in
    let same =
      match rf with
      | None -> true
      | Some rf ->
        matches ~what:spec.name ~expected:rf.kv (as_ref spec r)
        && (read_file (ckpt spec) = rf.ckpt
           || (complain "%s: final checkpoint differs from the reference" spec.name; false))
    in
    attempt spec.jobs ~failed:(if same then min spec.jobs bad else spec.jobs)

(* ---- per-layer figures of the traced unit ---------------------------------- *)

(* The traced unit runs the daemon as untraced, counting journal records
   through the journal sink.  Separate runs then split its time: the
   same stream with checkpoints off (and, for [serve_journal], with
   checkpoints but no journal), the source drained alone, 1,000 atomic
   rewrites of the run's own final checkpoint, and the journal read back
   and encoded. *)
let traced_unit spec ~seed ~check i =
  let records = ref 0 in
  J.set_sink (Some (fun _ -> incr records));
  let gc0 = gc_mark () in
  let root = Spans.enter spans (Spans.intern spans spec.name) in
  let o = unit spec ~seed ~traced:true i in
  Spans.leave spans root;
  let gc1 = gc_mark () in
  J.set_sink None;
  check o;
  let ckpt_bytes = read_file (ckpt spec) in
  let r = match o with Some r -> r | None -> failwith (spec.name ^ ": the traced daemon run failed") in
  let events = float_of_int r.Svc.events in
  Spans.new_run spans;
  let wall n f =
    let t0 = Clock.now_ns () in
    ignore (span n f);
    Clock.since_s t0
  in
  let bare_s =
    wall "serve.run.bare" (fun () -> daemon spec ~seed ~checkpoint:false ~journal:false i)
  in
  let ckpt_s =
    if spec.journal then wall "serve.run.checkpoint" (fun () -> daemon spec ~seed ~journal:false i)
    else Clock.to_s (Spans.duration spans root)
  in
  let source_s =
    wall "workload.source" (fun () ->
        let src = source spec ~seed i in
        let acc = ref 0.0 in
        while not (W.Source.exhausted src) do
          acc := !acc +. W.Source.next_release src +. W.Source.next_size src;
          W.Source.drop src
        done;
        Sys.opaque_identity !acc)
  in
  let probe = work_path (spec.name ^ ".fsio") in
  let writes =
    Array.init 1000 (fun _ ->
        let t0 = Clock.now_ns () in
        span "fsio.write_atomic" (fun () -> Fsio.write_atomic ~path:probe ckpt_bytes);
        Clock.since_s t0)
  in
  Sys.remove probe;
  let p99 = Option.get (Stats.tail writes) in
  if p99.Stats.bp <> 9900 then failwith "serve: the tail rule no longer picks p99";
  let journal_layers =
    if not spec.journal then []
    else begin
      (* The daemon's run was the traced one; the segments are its own. *)
      let evs = span "journal.read" (fun () -> Svc.read_journal ~dir:(jdir spec)) in
      let encode_s =
        wall "journal.encode" (fun () ->
            List.fold_left (fun acc e -> acc + String.length (J.to_json e)) 0 evs)
      in
      let segments = Svc.segment_files ~dir:(jdir spec) in
      let bytes =
        float_of_int (List.fold_left (fun acc p -> acc + (Unix.stat p).Unix.st_size) 0 segments)
      in
      [ m "journal.bytes" "bytes" bytes;
        m "journal.bytes_per_event" "bytes/event" (ratio bytes events);
        m "journal.segments" "count" (float_of_int (List.length segments));
        m "journal.encode_s" "s" encode_s;
        m "journal.total_s" "s" (Clock.to_s (Spans.duration spans root) -. ckpt_s) ]
    end
  in
  let layers =
    [ m "workload.source_s" "s" source_s;
      m "serve.core_s" "s" (bare_s -. source_s);
      m "serve.checkpoint_s" "s" (ckpt_s -. bare_s);
      m "serve.events" "count" events;
      m "serve.replans" "count" (float_of_int r.Svc.replans);
      m "serve.peak_live" "count" (float_of_int r.Svc.peak_live);
      m "serve.dropped" "count" (float_of_int r.Svc.dropped);
      m "serve.checkpoints" "count" (float_of_int r.Svc.checkpoints);
      m "serve.checkpoint_bytes" "bytes" (float_of_int (String.length ckpt_bytes));
      m "fsio.write_atomic_p50_us" "us" (fst (Stats.percentile (Stats.sorted writes) 5000) *. 1e6);
      m "fsio.write_atomic_p99_us" "us" (p99.Stats.value *. 1e6);
      m "fsio.write_atomic_samples" "count" (float_of_int p99.Stats.samples);
      m "journal.records" "count" (float_of_int !records);
      m "journal.records_per_event" "ratio" (ratio (float_of_int !records) events) ]
    @ journal_layers
    @ gc_metrics ~gc0 ~gc1 ~events
  in
  (root, layers)
