(* The benchmark's measured program: one workload per process, on one
   domain.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--capture]

   --trace 0 prints the end-to-end metrics of untraced units; --trace 1
   runs the workload's warm-up units, one untraced and one traced unit,
   and prints the per-layer metrics the workload measures
   (perfbench/run.py lays them over the list in BENCHMARK.json).
   --capture writes the workload's reference outputs for this seed
   instead of checking them.  The last line of standard output is the
   result object; the exit code is 1 when any output is wrong. *)

open Harness

module type WORKLOAD = sig
  type inputs
  type output
  type reference

  val setup : seed:int -> inputs
  val warmup : int  (* untimed units before the timed ones *)
  val unit : traced:bool -> inputs -> output
  val events : output -> int
  val capture : seed:int -> output -> unit
  val load_reference : seed:int -> reference option
  val check : reference option -> output -> unit
  val traced_unit : check:(output -> unit) -> inputs -> int * metric list
end

let serve_like (spec : Wl_serve.spec) ~seed =
  (module struct
    type inputs = Wl_serve.inputs
    type output = Wl_serve.output
    type reference = Wl_serve.reference

    let setup = Wl_serve.setup spec
    let warmup = Wl_serve.warmup
    let unit = Wl_serve.unit spec ~seed
    let events = Wl_serve.events
    let capture = Wl_serve.capture spec
    let load_reference = Wl_serve.load_reference spec
    let check = Wl_serve.check spec
    let traced_unit = Wl_serve.traced_unit spec ~seed
  end : WORKLOAD)

let workloads = [ "table1"; "scale"; "serve"; "serve_journal" ]

let workload name ~seed : (module WORKLOAD) =
  match name with
  | "table1" -> (module Wl_table1)
  | "scale" -> (module Wl_scale)
  | "serve" -> serve_like Wl_serve.serve ~seed
  | "serve_journal" -> serve_like Wl_serve.serve_journal ~seed
  | _ -> invalid_arg ("unknown workload " ^ name)

let run (a : args) =
  let (module Wl) = workload a.workload ~seed:a.seed in
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  if a.capture then begin
    let o = Wl.unit ~traced:false (Wl.setup ~seed:a.seed) in
    Wl.check None o;
    Wl.capture ~seed:a.seed o;
    []
  end
  else if not a.trace then begin
    (* Read before the timed set-up: only some seeds have reference files,
       and reading them would take most of a [serve] set-up. *)
    let reference = Wl.load_reference ~seed:a.seed in
    let setup_s, inputs = setup_median (fun () -> Wl.setup ~seed:a.seed) in
    let units, peak_mb =
      timed_units ~seconds:a.seconds ~warmup:Wl.warmup
        (fun () -> Wl.unit ~traced:false inputs)
        ~after:(fun o ->
          Wl.check reference o;
          Wl.events o)
    in
    let walls = Array.of_list (List.map fst units) in
    let rates = Array.of_list (List.map (fun (w, ev) -> float_of_int ev /. w) units) in
    [ m "setup_s" "s" setup_s; m "wall_s" "s" (Stats.median walls);
      m "events_per_s" "events/s" (Stats.median rates); m "peak_rss_mb" "MB" peak_mb ]
  end
  else begin
    let reference = Wl.load_reference ~seed:a.seed in
    let t0 = Clock.now_ns () in
    let inputs = span "workload.generate" (fun () -> Wl.setup ~seed:a.seed) in
    let generate_s = Clock.since_s t0 in
    (* Warm-up and the untraced unit as in the timed phase. *)
    let untraced, _ =
      timed_units ~seconds:0.0 ~warmup:Wl.warmup
        (fun () -> Wl.unit ~traced:false inputs)
        ~after:(Wl.check reference)
    in
    let untraced_s = fst (List.hd untraced) in
    Spans.new_run spans;
    let root, layers = Wl.traced_unit ~check:(Wl.check reference) inputs in
    let traced = trace_metrics ~untraced_s ~root in
    write_trace a.workload;
    (m "workload.generate_s" "s" generate_s :: layers) @ traced
  end

let usage () =
  prerr_endline
    ("usage: main.exe --workload {" ^ String.concat "|" workloads
   ^ "} --seed N --seconds S --trace 0|1 [--capture]");
  exit 2

let parse argv =
  let rec go a = function
    | "--workload" :: w :: rest -> go { a with workload = w } rest
    | "--seed" :: n :: rest -> go { a with seed = int_of_string n } rest
    | "--seconds" :: s :: rest -> go { a with seconds = float_of_string s } rest
    | "--trace" :: (("0" | "1") as t) :: rest -> go { a with trace = t = "1" } rest
    | "--capture" :: rest -> go { a with capture = true } rest
    | [] -> a
    | _ -> usage ()
  in
  let a =
    try
      go { workload = ""; seed = 0; seconds = 10.0; trace = false; capture = false }
        (List.tl (Array.to_list argv))
    with Failure _ -> usage ()
  in
  if not (List.mem a.workload workloads) then usage ();
  a

let () =
  let a = parse Sys.argv in
  (* Solver spans recorded by the library read the same clock. *)
  Gripps_obs.Obs.set_clock (fun () -> Clock.to_s (Clock.now_ns ()));
  (* The GC posture of bench/main.exe's scale and serve modes; its table
     sweep keeps the default. *)
  if a.workload <> "table1" then Gripps_engine.Gc_tune.throughput ();
  let metrics = run a in
  (* The daemon's checkpoint and journal segments are scratch. *)
  rm_rf (work_path a.workload);
  print_endline (result_line metrics);
  if tally.failed > 0 || tally.attempted = 0 then exit 1
