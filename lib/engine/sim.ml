open Gripps_model
module Obs = Gripps_obs.Obs
module J = Obs.Journal
module Vec = Gripps_collections.Vec

type event =
  | Arrival of int
  | Completion of int
  | Boundary
  | Failure of int
  | Recovery of int

(* Buffered event codes: the hot loop stores the pending batch as two int
   columns instead of consing an [event list] per dispatch. *)
let k_arrival = 0
let k_completion = 1
let k_boundary = 2
let k_failure = 3
let k_recovery = 4

let event_of_code k subj =
  match k with
  | 0 -> Arrival subj
  | 1 -> Completion subj
  | 2 -> Boundary
  | 3 -> Failure subj
  | _ -> Recovery subj

(* The flat plan buffer lives in the kernel (the daemon writes its plans
   into the same representation); re-exported here as the scheduler-facing
   name. *)
module Plan_buf = Kernel.Plan_buf

(* ------------------------------------------------------------------ *)
(* Engine state                                                        *)
(* ------------------------------------------------------------------ *)

(* The simulator is a driver over {!Kernel}: the kernel owns every fluid
   column (clock, remaining work, rates, support, crash bookkeeping, the
   live plan) and the one copy of the advance arithmetic; the driver owns
   what is specific to batch simulation — the instance, release order,
   plan validation, the buffered event batch, and journaling/recording. *)
type state = {
  inst : Instance.t;
  kern : Kernel.t;
  released : bool array;
  seen : int array;          (* duplicate-entry stamps (validation) *)
  mutable stamp : int;
  (* the pending event batch, as int columns *)
  mutable ev_kinds : int array;
  mutable ev_subj : int array;
  mutable ev_len : int;
  mutable last_kind : int;   (* last dispatched event; -1 = none *)
  mutable last_subj : int;
}

let instance st = st.inst
let now st = st.kern.Kernel.clock.(0)

let is_released st j = st.released.(j)
let is_completed st j = not (Float.is_nan st.kern.Kernel.ctimes.(j))

let remaining st j =
  if not st.released.(j) then invalid_arg "Sim.remaining: job not released";
  st.kern.Kernel.remaining.(j)

let machine_up st m =
  if m < 0 || m >= st.kern.Kernel.nm then
    invalid_arg "Sim.machine_up: bad machine";
  st.kern.Kernel.up.(m)

let lost_work st j = st.kern.Kernel.lost.(j)

let active_jobs st =
  let acc = ref [] in
  for j = Array.length st.released - 1 downto 0 do
    if st.released.(j) && not (is_completed st j) then acc := j :: !acc
  done;
  !acc

let completion_time st j =
  if is_completed st j then Some st.kern.Kernel.ctimes.(j) else None

(* During a callback the kernel's [rated] still holds the support of the
   plan segment that just ended: it is only reloaded when the returned
   plan is validated. *)
let kernel st = st.kern

module Events = struct
  let count st = st.ev_len

  let kind st i =
    match st.ev_kinds.(i) with
    | 0 -> `Arrival
    | 1 -> `Completion
    | 2 -> `Boundary
    | 3 -> `Failure
    | _ -> `Recovery

  let subject st i = st.ev_subj.(i)
end

let push_event st k subj =
  let cap = Array.length st.ev_kinds in
  if st.ev_len = cap then begin
    let ncap = 2 * cap in
    let nk = Array.make ncap 0 and ns = Array.make ncap 0 in
    Array.blit st.ev_kinds 0 nk 0 st.ev_len;
    Array.blit st.ev_subj 0 ns 0 st.ev_len;
    st.ev_kinds <- nk;
    st.ev_subj <- ns
  end;
  st.ev_kinds.(st.ev_len) <- k;
  st.ev_subj.(st.ev_len) <- subj;
  st.ev_len <- st.ev_len + 1

type flat_scheduler = {
  fname : string;
  fmake : Instance.t -> state -> Plan_buf.t -> unit;
}

let flat_stateless name f = { fname = name; fmake = (fun _inst -> f) }

let flat_incremental ~name ~init ~on_event =
  { fname = name;
    fmake =
      (fun inst ->
        let s = init inst in
        fun st buf -> on_event s st buf) }

(* The blind view is the engine state itself; the restriction is entirely
   in the signature (sim.mli keeps [view] abstract and only the accessors
   below can be applied to one).  Per-job accessors additionally refuse
   unreleased jobs: a non-clairvoyant scheduler learns a job's databank,
   release date and owner when the job arrives, never before. *)
module Blind = struct
  type view = state

  let platform v = Instance.platform v.inst
  let now = now
  let active_jobs = active_jobs
  let is_completed = is_completed
  let machine_up = machine_up

  let check_released name v j =
    if j < 0 || j >= Array.length v.released || not v.released.(j) then
      invalid_arg ("Sim.Blind." ^ name ^ ": job not released")

  let databank v j = check_released "databank" v j; Instance.databank v.inst j
  let release v j = check_released "release" v j; Instance.release v.inst j
  let user v j = check_released "user" v j; Instance.user v.inst j

  let at_boundary v =
    let rec go i = i < v.ev_len && (v.ev_kinds.(i) = k_boundary || go (i + 1)) in
    go 0
end

let nonclairvoyant = flat_stateless

let nonclairvoyant_incremental ~name ~init ~on_event =
  { fname = name;
    fmake =
      (fun inst ->
        let s = init (Instance.platform inst) in
        fun st buf -> on_event s st buf) }

exception Stalled of { time : float; pending : int list }

exception
  Horizon_exceeded of {
    scheduler : string;
    time : float;
    guard : float;
    pending : int list;
    last_event : event option;
    journal : J.event list;
  }

(* Engine-level observability counters: live at every level (they are
   plain increments), reported through the shared registry. *)
let c_events = Obs.Counter.make "sim.events"
let c_replans = Obs.Counter.make "sim.replans"
let c_segments = Obs.Counter.make "sim.segments"
let c_runs = Obs.Counter.make "sim.runs"

(* Minor-heap words allocated inside [run_core], accumulated through the
   registry so harnesses (Scale, CI's allocations-per-event gate) can
   read allocations-per-event without instrumenting the engine. *)
let c_minor_words = Obs.Counter.make "sim.minor_words"

let share_eps = 1e-9

(* Local max over finite floats: a one-liner the compiler inlines, so no
   boxing at a call boundary (the [Float.max] NaN-handling branches are
   irrelevant here — event dates and work sizes are never NaN). *)
let fmax (a : float) (b : float) = if b > a then b else a

(* Integer comparator at the top level: passing it to
   [Vec.insertion_sort] allocates nothing (a closure literal would). *)
let int_compare (a : int) (b : int) = compare a b

(* Check the plan buffer against the model invariants, then hand it to
   the kernel to (re)load the per-job processing rates and support.  The
   cost is O(|old plan| + |new plan|) — independent of the total number
   of jobs — and the pass allocates nothing (error paths excepted). *)
let check_plan st name (b : Plan_buf.t) =
  let k = st.kern in
  let platform = Instance.platform st.inst in
  let nmach = Platform.num_machines platform in
  let nj = Instance.num_jobs st.inst in
  let nr = Plan_buf.runs b in
  for i = 0 to nr - 1 do
    let mid = Plan_buf.run_machine b i in
    if mid < 0 || mid >= nmach then
      invalid_arg (name ^ ": allocation references unknown machine");
    if not k.Kernel.up.(mid) then
      invalid_arg (name ^ ": allocation references down machine");
    let m = Platform.machine platform mid in
    let len = Plan_buf.run_length b i in
    k.Kernel.scratch.(0) <- 0.0;
    for e = 0 to len - 1 do
      k.Kernel.scratch.(0) <- k.Kernel.scratch.(0) +. Plan_buf.entry_share b i e
    done;
    if k.Kernel.scratch.(0) > 1.0 +. share_eps then
      invalid_arg (name ^ ": machine oversubscribed");
    st.stamp <- st.stamp + 1;
    let stamp = st.stamp in
    for e = 0 to len - 1 do
      let jid = Plan_buf.entry_job b i e in
      let share = Plan_buf.entry_share b i e in
      if jid < 0 || jid >= nj then
        invalid_arg (name ^ ": allocation references unknown job");
      if st.seen.(jid) = stamp then
        invalid_arg
          (Printf.sprintf "%s: duplicate entry for job %d on machine %d"
             name jid mid);
      st.seen.(jid) <- stamp;
      if share < 0.0 then
        invalid_arg
          (Printf.sprintf "%s: negative share %g for job %d on machine %d"
             name share jid mid);
      (* Written as a negation so NaN fails it too. *)
      if not (share > 0.0) then invalid_arg (name ^ ": non-positive share");
      if not st.released.(jid) then
        invalid_arg (name ^ ": job allocated before release");
      if is_completed st jid then
        invalid_arg (name ^ ": completed job allocated");
      if not (Machine.hosts m (Instance.databank st.inst jid)) then
        invalid_arg (name ^ ": job allocated to machine missing its databank")
    done
  done;
  Kernel.load_rates k

type report = {
  schedule : Schedule.t;
  metrics : Metrics.t;
  lost : float array;
  replans : int;
  events : int;
  journal : J.event list;
}

let run_core ?horizon ?(faults = []) ?(loss = Fault.Crash) ~record ~name
    ~(f : state -> Plan_buf.t -> unit) inst =
  let nj = Instance.num_jobs inst in
  let platform = Instance.platform inst in
  let nm = Platform.num_machines platform in
  let mark = J.position () in
  let replan_count = ref 0 in
  let event_count = ref 0 in
  let mw0 = Gc.minor_words () in
  Obs.Counter.incr c_runs;
  if J.on () then
    J.record (J.Run_start { scheduler = name; jobs = nj; machines = nm });
  let k =
    Kernel.create ~loss
      ~speeds:
        (Array.init nm (fun m -> (Platform.machine platform m).Machine.speed))
      nj
  in
  let st =
    { inst;
      kern = k;
      released = Array.make nj false;
      seen = Array.make nj 0;
      stamp = 0;
      ev_kinds = Array.make 16 0;
      ev_subj = Array.make 16 0;
      ev_len = 0;
      last_kind = -1;
      last_subj = 0 }
  in
  let release = Instance.releases inst in
  Array.fill k.Kernel.ctimes 0 nj nan;
  Array.blit (Instance.sizes inst) 0 k.Kernel.size 0 nj;
  Array.blit (Instance.sizes inst) 0 k.Kernel.remaining 0 nj;
  k.Kernel.trace <- Fault.normalize faults;
  List.iter
    (fun (e : Fault.edge) ->
      if e.machine >= nm then
        invalid_arg (name ^ ": fault trace references unknown machine"))
    k.Kernel.trace;
  (* Residual work below the float resolution of the whole instance is
     physically negligible (sub-microsecond of compute); treating it as
     done prevents plans computed with 1e-9-relative tolerances from
     leaving slivers that would only complete when the schedule drains.
     The instance's total work is the kernel's sliver yardstick. *)
  (* Explicit loop through the scratch cell: [Array.fold_left ( +. )]
     boxes every intermediate sum — 2 words per job before the run even
     starts. *)
  k.Kernel.scratch.(0) <- 0.0;
  for j = 0 to nj - 1 do
    k.Kernel.scratch.(0) <- k.Kernel.scratch.(0) +. k.Kernel.remaining.(j)
  done;
  k.Kernel.yard.(0) <- k.Kernel.scratch.(0);
  let last_event_opt () =
    if st.last_kind < 0 then None
    else Some (event_of_code st.last_kind st.last_subj)
  in
  let note_last () =
    if st.ev_len > 0 then begin
      st.last_kind <- st.ev_kinds.(st.ev_len - 1);
      st.last_subj <- st.ev_subj.(st.ev_len - 1)
    end
  in
  let journal_events () =
    for i = 0 to st.ev_len - 1 do
      let subj = st.ev_subj.(i) in
      J.record
        (match st.ev_kinds.(i) with
         | 0 -> J.Sim_event { time = now st; kind = J.Arrival; subject = subj }
         | 1 ->
           (* The exact completion date [C_j] may precede the dispatch
              date by a rounding sliver; record the exact one so the
              journal re-derives bit-identical stretches. *)
           J.Sim_event
             { time = k.Kernel.ctimes.(subj); kind = J.Completion;
               subject = subj }
         | 2 -> J.Sim_event { time = now st; kind = J.Boundary; subject = -1 }
         | 3 -> J.Sim_event { time = now st; kind = J.Failure; subject = subj }
         | _ -> J.Sim_event { time = now st; kind = J.Recovery; subject = subj })
    done
  in
  (* Dispatch the buffered batch to the scheduler: journal the events and
     the plan it answers with, and keep the per-run tallies.  The
     scheduler writes into the kernel's reusable plan buffer. *)
  let dispatch () =
    event_count := !event_count + st.ev_len;
    Obs.Counter.add c_events st.ev_len;
    incr replan_count;
    Obs.Counter.incr c_replans;
    if J.on () then journal_events ();
    Plan_buf.clear ~grab_order:true k.Kernel.plan;
    f st k.Kernel.plan;
    if J.on () then
      J.record
        (J.Replan
           { time = now st; scheduler = name;
             allocation = Plan_buf.to_allocation k.Kernel.plan;
             horizon =
               (let h = Plan_buf.horizon k.Kernel.plan in
                if h = infinity then None else Some h) })
  in
  let segments = Schedule.Builder.create () in
  let next_arrival = ref 0 in
  (* Gather every job released at exactly the current date, flagging those
     whose whole size is already below the sliver resolution — they are
     the only unallocated jobs the sliver rule can ever fire on (an
     unallocated job's remaining work is constant, and an allocated job
     that drops below the threshold completes in that same advance).
     Reads the date from the kernel clock rather than taking it as an
     argument: a float argument to this (non-inlined, recursive) closure
     would be boxed at every event. *)
  let rec pop_arrivals () =
    if
      !next_arrival < nj
      && release.(!next_arrival) <= k.Kernel.clock.(0) +. 1e-12
    then begin
      let j = !next_arrival in
      st.released.(j) <- true;
      let size = k.Kernel.size.(j) in
      if size <= 1e-9 *. fmax size k.Kernel.yard.(0) then
        Vec.push k.Kernel.tiny j;
      push_event st k_arrival j;
      incr next_arrival;
      pop_arrivals ()
    end
  in
  (* Apply every availability edge due at the current date (the kernel
     absorbs duplicate edges) and emit Failure/Recovery for the real
     state flips. *)
  let drain_flips () =
    for i = 0 to Vec.length k.Kernel.flips - 1 do
      let v = Vec.get k.Kernel.flips i in
      push_event st (if v land 1 = 1 then k_recovery else k_failure) (v lsr 1)
    done
  in
  (* The delivered shares as a list, canonical order, crashed
     machines dropped — materialized only when a segment is actually
     recorded (record mode or journaling). *)
  let delivered_shares () =
    let b = k.Kernel.plan in
    let rec entries i e acc =
      if e < 0 then acc
      else
        entries i (e - 1)
          ((Plan_buf.entry_job b i e, Plan_buf.entry_share b i e) :: acc)
    in
    let rec go i acc =
      if i < 0 then acc
      else
        let m = Plan_buf.run_machine b i in
        if k.Kernel.crashing.(m) then go (i - 1) acc
        else go (i - 1) ((m, entries i (Plan_buf.run_length b i - 1) []) :: acc)
    in
    go (Plan_buf.runs b - 1) []
  in
  let finished () = k.Kernel.n_completed = nj in
  (* Kick off: jump to the first release date, applying any availability
     edge that predates it.  The edges are applied before the arrival
     scan, but the batch order contract is arrivals first, faults second
     — which is exactly how the kernel's flip record lets us emit them. *)
  if nj > 0 then begin
    k.Kernel.clock.(0) <- release.(0);
    st.ev_len <- 0;
    Kernel.pop_faults k;
    pop_arrivals ();
    drain_flips ();
    note_last ();
    dispatch ()
  end;
  while not (finished ()) do
    (match horizon with
     | Some h when now st > h ->
       raise
         (Horizon_exceeded
            { scheduler = name; time = now st; guard = h;
              pending = active_jobs st; last_event = last_event_opt ();
              journal = J.since mark })
     | Some _ | None -> ());
    check_plan st name k.Kernel.plan;
    (* Earliest completion under the current rates (folded into the
       kernel's scratch cell — a [float ref] would box on every store),
       then the arrival / fault / plan-boundary dates.  The compare-store
       fold keeps every branch unboxed; all four dates are non-NaN, so it
       computes exactly the min of the four. *)
    Kernel.fold_next_completion k;
    let nowv = k.Kernel.clock.(0) in
    let arrival_t =
      if !next_arrival < nj then release.(!next_arrival) else infinity
    in
    let fault_t =
      match k.Kernel.trace with e :: _ -> e.Fault.time | [] -> infinity
    in
    let horizon_t = k.Kernel.plan.Plan_buf.hor.(0) in
    if not (horizon_t > nowv +. 1e-12) then
      invalid_arg (name ^ ": plan horizon not in the future");
    if arrival_t < k.Kernel.scratch.(0) then k.Kernel.scratch.(0) <- arrival_t;
    if fault_t < k.Kernel.scratch.(0) then k.Kernel.scratch.(0) <- fault_t;
    if horizon_t < k.Kernel.scratch.(0) then k.Kernel.scratch.(0) <- horizon_t;
    let t_next = k.Kernel.scratch.(0) in
    if t_next = infinity then
      raise (Stalled { time = k.Kernel.clock.(0); pending = active_jobs st });
    let dt = t_next -. nowv in
    (* Stage the segment end in the kernel ([scratch.(1)] carries it past
       this point without boxing the binding) and run the crash-loss
       bookkeeping: machines dying at [t_next] under crash semantics lose
       the whole segment's work. *)
    Kernel.begin_step k;
    k.Kernel.scratch.(1) <- t_next;
    Kernel.crash_scan k;
    Kernel.load_lost_rates k;
    (* Record the segment (crashed machines deliver nothing, so their
       shares are dropped from the record). *)
    if dt > 0.0 && Kernel.any_live_run k 0 then begin
      if record || J.on () then begin
        let seg_start = k.Kernel.clock.(0) and seg_end = k.Kernel.scratch.(1) in
        let shares = delivered_shares () in
        if record then
          Schedule.Builder.add segments
            { Schedule.start_time = seg_start; end_time = seg_end; shares };
        if J.on () then
          J.record
            (J.Segment { start_time = seg_start; end_time = seg_end; shares })
      end;
      Obs.Counter.incr c_segments
    end;
    (* The one fluid advance (crash losses, completions, sliver rule)
       lives in the kernel.  The scheduler contract emits simultaneous
       completions in ascending job order; the kernel discovers them in
       plan order, so sort (in place: batches are tiny and [Vec.sort]
       copies). *)
    Kernel.advance k;
    Vec.insertion_sort int_compare k.Kernel.completions;
    k.Kernel.clock.(0) <- t_next;
    st.ev_len <- 0;
    pop_arrivals ();
    for i = 0 to Vec.length k.Kernel.completions - 1 do
      push_event st k_completion (Vec.get k.Kernel.completions i)
    done;
    Kernel.pop_faults k;
    drain_flips ();
    let eps_t = 1e-9 *. fmax 1.0 (abs_float t_next) in
    if horizon_t <= t_next +. eps_t && not (finished ()) then
      push_event st k_boundary (-1);
    note_last ();
    if not (finished ()) then dispatch ()
    else begin
      (* Journal the final completion batch even though no replan follows:
         the journal must contain every job's exact completion date. *)
      event_count := !event_count + st.ev_len;
      Obs.Counter.add c_events st.ev_len;
      if J.on () then
        for i = 0 to st.ev_len - 1 do
          if st.ev_kinds.(i) = k_completion then begin
            let j = st.ev_subj.(i) in
            J.record
              (J.Sim_event
                 { time = k.Kernel.ctimes.(j); kind = J.Completion; subject = j })
          end
        done
    end
  done;
  if J.on () then J.record (J.Run_end { time = now st; completed = nj });
  (* The kernel dies with this run, so the report takes its columns as
     they are: [ctimes] already holds NaN for a pending job, the
     schedule's convention, and the epilogue allocates nothing per job. *)
  let schedule =
    Schedule.make ~instance:inst
      ~segments:(if record then Schedule.Builder.segments segments else [])
      ~completion:k.Kernel.ctimes
  in
  let metrics =
    if record then Metrics.of_schedule schedule
    else Metrics.of_completion inst ~completion:k.Kernel.ctimes
  in
  Obs.Counter.add c_minor_words (int_of_float (Gc.minor_words () -. mw0));
  { schedule;
    metrics;
    lost = k.Kernel.lost;
    replans = !replan_count;
    events = !event_count;
    journal = J.since mark }

let run_report_flat ?horizon ?faults ?loss ?(record = true) fs inst =
  run_core ?horizon ?faults ?loss ~record ~name:fs.fname ~f:(fs.fmake inst)
    inst
