(* What every workload shares: arguments, the set-up and timed-phase
   loops, the failure tally, the span store and the result line. *)

module Clock = Perfbench_kit.Clock
module Stats = Perfbench_kit.Stats
module Spans = Perfbench_kit.Spans
module Refcheck = Perfbench_kit.Refcheck

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  capture : bool;  (* write the reference files instead of checking them *)
}

(* Inputs are read from and scratch files written to paths relative to
   the checkout root, the directory the benchmark is launched from. *)
let ref_dir = Filename.concat "perfbench" "ref"
let work_dir = Filename.concat "perfbench" "_work"

let work_path file = Filename.concat work_dir file

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* ---- failures ---------------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let attempt ?(failed = 0) n =
  tally.attempted <- tally.attempted + n;
  tally.failed <- tally.failed + failed

let complain fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m)) fmt

(* ---- reference files ----------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* A workload's reference outputs for one seed live in
   [ref/<workload>/<seed>.<ext>]; seeds without them are checked by
   invariants only. *)
let ref_path workload ~seed ext =
  Filename.concat (Filename.concat ref_dir workload) (Printf.sprintf "%d.%s" seed ext)

let read_ref workload ~seed ext =
  let path = ref_path workload ~seed ext in
  if Sys.file_exists path then Some (read_file path) else None

let write_ref workload ~seed ext s =
  let dir = Filename.concat ref_dir workload in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  write_file (ref_path workload ~seed ext) s

(* Compare against the reference; report and return whether it matched. *)
let matches ~what ~expected actual =
  match Refcheck.diff ~expected ~actual with
  | [] -> true
  | ds ->
    List.iter (fun d -> complain "%s: %s" what d) ds;
    false

(* ---- process figures --------------------------------------------------- *)

(* High-water resident set (VmHWM) in MB. *)
let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find (String.starts_with ~prefix:"VmHWM:")
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

type gc_mark = { minor : float; majors : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_words; majors = s.Gc.major_collections }

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* ---- loops ------------------------------------------------------------- *)

(* Set-up is timed seven times and the median reported, so the first,
   cold build (fresh pages from the system) does not decide the figure.
   A set-up shorter than 0.1 s is repeated until the repetitions add up
   to 0.1 s and the sample is their mean: a [serve] set-up takes a few
   microseconds and a [table1] one about 15 ms, too short to time once
   against the host's noise.  The previous inputs are dropped before the
   next build and collected between samples, so two copies of a large
   instance never live at once.  Forced collections are not free: each
   leaves the major collector pacing later allocation more lazily, and
   sixty of them before a Table 1 left its peak resident set six times
   higher than five did. *)
let setup_median f =
  let times = Array.make 7 0.0 and last = ref None in
  for k = 0 to Array.length times - 1 do
    last := None;
    if k > 0 then Gc.full_major ();
    let t0 = Clock.now_ns () and n = ref 0 in
    while !n = 0 || Clock.since_s t0 < 0.1 do
      last := None;
      last := Some (f ());
      incr n
    done;
    times.(k) <- Clock.since_s t0 /. float_of_int !n
  done;
  complain "set-up: %s s" (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4g") times)));
  (Stats.median times, Option.get !last)

(* [warmup] untimed units, then the timed phase: whole units, at least
   one, each started only if a unit of the median length so far would
   end less than half a unit past [seconds], so a run ends within about
   half a unit of [seconds].  [after] runs untimed on each unit's output,
   warm-up included, before the next unit starts.  Returns each timed
   unit's wall time with what [after] returned, and the high-water
   resident set read right after the first timed unit: later units
   raise it a little each as the major heap grows (a Table 1 from 84-88
   MB after one unit to 89-101 MB after two), so read at the end it
   would depend on how many units the host's speed let into the run. *)
let timed_units ~seconds ~warmup f ~after =
  let run () =
    let t0 = Clock.now_ns () in
    let o = f () in
    let wall = Clock.since_s t0 in
    (wall, after o)
  in
  for k = 1 to warmup do
    complain "warm-up %d: %.4g s" k (fst (run ()))
  done;
  let t_all = Clock.now_ns () in
  let rec go acc n =
    let typical () = Stats.median (Array.of_list (List.map fst acc)) in
    if n > 0 && Clock.since_s t_all +. (0.5 *. typical ()) >= seconds then List.rev acc
    else begin
      let ((wall, _) as u) = run () in
      complain "unit %d: %.4g s" (n + 1) wall;
      go (u :: acc) (n + 1)
    end
  in
  let first = run () in
  complain "unit 1: %.4g s" (fst first);
  let peak = peak_rss_mb () in
  (go [ first ] 1, peak)

(* ---- metrics and the result line ---------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Every digit of the measurement; JSON has no NaN or infinity. *)
let json_number name v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith (Printf.sprintf "metric %s is %g" name v)

let result_line metrics =
  let correct = tally.failed = 0 && tally.attempted > 0 in
  let body =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (json_number x.name x.value) x.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct tally.attempted tally.failed (String.concat ", " body)

let gc_metrics ~gc0 ~gc1 ~events =
  let words = gc1.minor -. gc0.minor in
  [ m "gc.minor_words" "words" words;
    m "gc.minor_words_per_event" "words/event" (ratio words events);
    m "gc.major_collections" "count" (float_of_int (gc1.majors - gc0.majors));
    m "gc.top_heap_mb" "MB" (top_heap_mb ()) ]

(* ---- tracing ------------------------------------------------------------- *)

let spans = Spans.create ~capacity:65536

let span name f = Spans.with_ spans name f

(* Time and calls charged to each wrapped scheduler. *)
type cb_tally = { ns : int array; calls : int array }

let cb_tally n = { ns = Array.make n 0; calls = Array.make n 0 }

let cb_reset t =
  Array.fill t.ns 0 (Array.length t.ns) 0;
  Array.fill t.calls 0 (Array.length t.calls) 0

(* The scheduler with its factory and per-event callback timed from
   outside: the time and the callback count add to slot [k] of the tally
   and the time is charged to the enclosing span as leaf time, which
   splits scheduler time from engine time without touching the engine.
   Allocation-free per event. *)
let timed t k (s : Gripps_engine.Sim.flat_scheduler) =
  let charge d =
    t.ns.(k) <- t.ns.(k) + d;
    Spans.charge spans d
  in
  { s with
    Gripps_engine.Sim.fmake =
      (fun inst ->
        let t0 = Clock.now_ns () in
        let cb = s.Gripps_engine.Sim.fmake inst in
        charge (Clock.now_ns () - t0);
        fun st pb ->
          let t0 = Clock.now_ns () in
          cb st pb;
          t.calls.(k) <- t.calls.(k) + 1;
          charge (Clock.now_ns () - t0)) }

(* The traced unit's own figures, common to every workload. *)
let trace_metrics ~untraced_s ~root =
  let kids = Spans.children spans in
  let traced_s = Clock.to_s (Spans.duration spans root) in
  [ m "trace.overhead_ratio" "ratio" (ratio traced_s untraced_s -. 1.0);
    m "trace.coverage" "ratio" (Spans.coverage spans kids root);
    m "trace.spans" "count" (float_of_int spans.Spans.len) ]

let write_trace workload =
  Spans.write_jsonl spans ~path:(work_path (workload ^ ".trace.jsonl"))
