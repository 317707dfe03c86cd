open Gripps_engine
open Gripps_sched
module Obs = Gripps_obs.Obs

(* Observability: one counter per replan outcome.  [degraded] replans are
   the fallback path (solver budget blown, or every machine down) — the
   resilience study watches this to tell "scheduler coped" apart from
   "scheduler gave up". *)
let c_replans = Obs.Counter.make "online.replans"
let c_degraded = Obs.Counter.make "online.degraded_replans"

(* Arrivals change the pending-work problem; so do machine failures and
   recoveries (the snapshot excludes down machines, so the LP must be
   re-solved on either edge).  Completions and boundaries never do. *)
let needs_replan st =
  let rec go i =
    i < Sim.Events.count st
    && (match Sim.Events.kind st i with
        | `Arrival | `Failure | `Recovery -> true
        | `Completion | `Boundary -> go (i + 1))
  in
  go 0

(* The on-line heuristics run in doubles (as the paper's implementation
   did): only the clairvoyant Offline optimum needs exact arithmetic.

   Returns [None] when no plan can be computed right now: either every
   machine is down (the caller idles until a recovery triggers the next
   replan) or the solver blew its budget (the caller degrades to greedy
   SWRPT list scheduling — the plan player's own fallback). *)
let solve_state ?budget st ~refine =
  Obs.Span.with_ "online.replan" @@ fun () ->
  Obs.Counter.incr c_replans;
  let degraded reason =
    Obs.Counter.incr c_degraded;
    if Obs.Journal.on () then
      Obs.Journal.record
        (Obs.Journal.Note { key = "online.degraded"; value = reason });
    None
  in
  let snap = Snapshot.of_state st in
  if snap.Snapshot.problem.Stretch_solver.machines = [] then
    degraded "all machines down"
  else begin
    let floor = Gripps_numeric.Rat.to_float (Snapshot.stretch_floor st) in
    match Stretch_solver.solve_float ?budget ~floor ~refine snap.Snapshot.problem with
    | a -> Some (snap, a)
    | exception Stretch_solver.Budget_exhausted _ -> degraded "solver budget exhausted"
  end

(* Online and Online-EDF: solve + realize into commitments, replayed by a
   plan player until the next arrival, failure or recovery. *)
let playback_scheduler ?budget name ~policy ~refine =
  { Sim.fname = name;
    fmake =
      (fun inst ->
        let player = Plan_player.create () in
        let sizes = Snapshot.sizes_fn inst in
        fun st buf ->
          if needs_replan st then begin
            match solve_state ?budget st ~refine with
            | Some (snap, a) ->
              Plan_player.set_plan player
                (Snapshot.expand_commitments snap
                   (Realize.commitments a ~policy ~sizes ~speeds:snap.Snapshot.vspeed))
            | None ->
              (* Degraded mode: an empty plan makes [Plan_player.step]
                 fall through to its SWRPT mop-up (or to idling when
                 every machine is down). *)
              Plan_player.set_plan player []
          end;
          Plan_player.step player st buf) }

let online =
  playback_scheduler "Online" ~policy:Realize.Terminal_first ~refine:true

let online_edf =
  playback_scheduler "Online-EDF" ~policy:Realize.By_completion_interval ~refine:true

let online_non_optimized =
  playback_scheduler "Online-NonOpt" ~policy:Realize.Terminal_first ~refine:false

let online_budgeted budget =
  playback_scheduler ~budget "Online-Budgeted" ~policy:Realize.Terminal_first
    ~refine:true

(* Online-EGDF: keep only the global completion-interval order and run the
   greedy distribution rule at every event. *)
let online_egdf =
  { Sim.fname = "Online-EGDF";
    fmake =
      (fun inst ->
        let sizes = Snapshot.sizes_fn inst in
        let order = ref [] in
        (* Stamped membership marks: the straggler check below used to be
           [List.mem] inside a filter — O(n²) per event. *)
        let mark = Array.make (Gripps_model.Instance.num_jobs inst) 0 in
        let stamp = ref 0 in
        fun st buf ->
          if needs_replan st then begin
            match solve_state st ~refine:true with
            | Some (_snap, a) -> order := Realize.completion_order a ~sizes
            | None -> order := []
          end;
          let alive = List.filter (fun j -> not (Sim.is_completed st j)) !order in
          (* Safety: any active job missing from the order (possible after
             a degraded replan, guaranteed absent for solver output) goes
             last. *)
          incr stamp;
          List.iter (fun j -> mark.(j) <- !stamp) alive;
          let missing =
            List.filter (fun j -> mark.(j) <> !stamp) (Sim.active_jobs st)
          in
          List_sched.allocate st ~priority_order:(alive @ missing) buf) }
