(* The columnar fluid kernel shared by every execution surface.

   One copy of the divisible-load semantics: dense per-job rate/support
   columns loaded from a flat {!Plan_buf.t}, crash-loss bookkeeping, and
   the fluid advance with the sliver rule stated once.  [Sim] (batch
   runs), the [Service] daemon (slot pool) and — through them —
   [Federation] shards are thin drivers over this module: they own
   release/admission, event dispatch, journaling and metrics, while
   every float op that decides a completion date lives here.

   Bit-identity is the design constraint, not an afterthought.  The
   arithmetic below reproduces both historical engines exactly:

   - The sliver threshold is [1e-9 *. fmax size.(j) yard.(0)].  Sim sets
     [yard.(0)] to the instance's total work (the historical
     [1e-9 * max size total_work] rule); the daemon leaves it at [0.0],
     and [fmax size 0.0 = size] bit-for-bit, which is the historical
     service rule [1e-9 * size].  One formula, both behaviours.
   - The advance puts the sliver check on the two non-completing
     branches (the historical service shape).  Sim's historical shape — a
     shared post-branch check guarded by [not completed] — is equivalent:
     the [t_fin] branch zeroes [remaining] and marks the job completed,
     so the shared check was dead there and live exactly on the other
     two branches.
   - Rates load in canonical plan order as [share *. speed], pushing a
     job on the support vector at its first positive contribution — the
     one accumulation order all drivers (and the daemon's checkpoint
     restore) now share.

   Everything is a dense array or a reusable [Vec]; no closure, no float
   crosses a call boundary (time cells travel through [clock]/[scratch]),
   so a steady-state driver loop allocates nothing here. *)

module Vec = Gripps_collections.Vec

let fmax (a : float) (b : float) = if b > a then b else a

(* ---- flat plan buffer --------------------------------------------------- *)

module Plan_buf = struct
  (* Parallel columns: machine "runs" indexing into a flat (job, share)
     entry array.  [grab_order] declares that runs were pushed in reverse
     canonical order (the list-scheduling walk); accessors transparently
     reverse the runs so every reader sees the canonical order — float
     summation order included — bit for bit. *)
  type t = {
    mutable run_mach : int array;   (* machine of run i (push order) *)
    mutable run_start : int array;  (* first entry of run i *)
    mutable nruns : int;
    mutable e_job : int array;      (* entry columns *)
    mutable e_share : float array;
    mutable len : int;              (* entries used *)
    hor : float array;              (* hor.(0): horizon, infinity = none *)
    mutable grab_order : bool;
  }

  let create () =
    {
      run_mach = Array.make 8 0;
      run_start = Array.make 8 0;
      nruns = 0;
      e_job = Array.make 16 0;
      e_share = Array.make 16 0.0;
      len = 0;
      hor = [| infinity |];
      grab_order = false;
    }

  let clear ?(grab_order = false) b =
    b.nruns <- 0;
    b.len <- 0;
    b.hor.(0) <- infinity;
    b.grab_order <- grab_order

  let grow_runs b =
    let n = Array.length b.run_mach in
    let run_mach = Array.make (2 * n) 0 in
    let run_start = Array.make (2 * n) 0 in
    Array.blit b.run_mach 0 run_mach 0 n;
    Array.blit b.run_start 0 run_start 0 n;
    b.run_mach <- run_mach;
    b.run_start <- run_start

  let grow_entries b =
    let n = Array.length b.e_job in
    let e_job = Array.make (2 * n) 0 in
    let e_share = Array.make (2 * n) 0.0 in
    Array.blit b.e_job 0 e_job 0 n;
    Array.blit b.e_share 0 e_share 0 n;
    b.e_job <- e_job;
    b.e_share <- e_share

  let begin_machine b m =
    if b.nruns = Array.length b.run_mach then grow_runs b;
    b.run_mach.(b.nruns) <- m;
    b.run_start.(b.nruns) <- b.len;
    b.nruns <- b.nruns + 1

  let push_share b ~job ~share =
    if b.nruns = 0 then
      invalid_arg "Plan_buf.push_share: no begin_machine yet";
    if b.len = Array.length b.e_job then grow_entries b;
    b.e_job.(b.len) <- job;
    b.e_share.(b.len) <- share;
    b.len <- b.len + 1

  let push_unit_share b ~job =
    if b.nruns = 0 then
      invalid_arg "Plan_buf.push_unit_share: no begin_machine yet";
    if b.len = Array.length b.e_job then grow_entries b;
    b.e_job.(b.len) <- job;
    b.e_share.(b.len) <- 1.0;
    b.len <- b.len + 1

  let set_horizon b h = b.hor.(0) <- h
  let horizon b = b.hor.(0)
  let runs b = b.nruns
  let is_empty b = b.nruns = 0

  (* Canonical index of run [i]: identity normally, reversed when the
     buffer was filled in grab order. *)
  let raw b i = if b.grab_order then b.nruns - 1 - i else i
  let run_machine b i = b.run_mach.(raw b i)

  let run_end b r = if r + 1 = b.nruns then b.len else b.run_start.(r + 1)
  let run_length b i =
    let r = raw b i in
    run_end b r - b.run_start.(r)

  let entry_job b i k = b.e_job.(b.run_start.(raw b i) + k)
  let entry_share b i k = b.e_share.(b.run_start.(raw b i) + k)

  let to_allocation b =
    List.init (runs b) (fun i ->
        ( run_machine b i,
          List.init (run_length b i) (fun k ->
              (entry_job b i k, entry_share b i k)) ))
end

(* ---- kernel state ------------------------------------------------------- *)

type t = {
  nm : int;                       (* machines *)
  speeds : float array;           (* machine speeds, dense by machine id *)
  up : bool array;                (* current machine availability *)
  mutable trace : Fault.edge list;  (* pending availability edges *)
  loss : Fault.loss;
  yard : float array;             (* yard.(0): sliver yardstick, see above *)
  size : float array;             (* per-job/slot: total work *)
  remaining : float array;        (* per-job/slot: remaining work *)
  ctimes : float array;           (* completion date; Sim keeps NaN = pending *)
  lost : float array;             (* per-job Mflop destroyed by crashes *)
  lost_acc : float array;         (* lost_acc.(0): scalar total (daemon) *)
  rates : float array;            (* current processing rate *)
  lost_rates : float array;       (* rate lost to crashing machines *)
  rated : int Vec.t;              (* support of the current plan *)
  tiny : int Vec.t;               (* sub-sliver arrivals pending completion *)
  crashing : bool array;          (* machine dies at the segment end *)
  crashed : int Vec.t;            (* members of [crashing] *)
  completions : int Vec.t;        (* jobs completed by the last advance *)
  flips : int Vec.t;              (* fault flips: 2*machine + (up ? 1 : 0) *)
  clock : float array;            (* clock.(0): current date *)
  scratch : float array;          (* 0: next-event fold; 1: segment end *)
  plan : Plan_buf.t;
  mutable n_completed : int;
}

let create ~loss ~speeds n =
  let nm = Array.length speeds in
  {
    nm;
    speeds;
    up = Array.make nm true;
    trace = [];
    loss;
    yard = [| 0.0 |];
    size = Array.make n 0.0;
    remaining = Array.make n 0.0;
    ctimes = Array.make n 0.0;
    lost = Array.make n 0.0;
    lost_acc = [| 0.0 |];
    rates = Array.make n 0.0;
    lost_rates = Array.make n 0.0;
    rated = Vec.create ();
    tiny = Vec.create ();
    crashing = Array.make nm false;
    crashed = Vec.create ();
    completions = Vec.create ();
    flips = Vec.create ();
    clock = [| 0.0 |];
    scratch = [| 0.0; 0.0 |];
    plan = Plan_buf.create ();
    n_completed = 0;
  }

(* ---- plan support ------------------------------------------------------- *)

(* Zero the old support, then load rates from the plan in canonical
   order: a job joins [rated] at its first positive contribution and
   accumulates [share *. speed] machine run by machine run.  This single
   accumulation order serves Sim's plan validation, the daemon's replan,
   and the daemon's checkpoint restore. *)
let load_rates k =
  for i = 0 to Vec.length k.rated - 1 do
    let j = Vec.get k.rated i in
    k.rates.(j) <- 0.0;
    k.lost_rates.(j) <- 0.0
  done;
  Vec.clear k.rated;
  let b = k.plan in
  for i = 0 to Plan_buf.runs b - 1 do
    let m = Plan_buf.run_machine b i in
    for e = 0 to Plan_buf.run_length b i - 1 do
      let j = Plan_buf.entry_job b i e in
      let r = Plan_buf.entry_share b i e *. k.speeds.(m) in
      if k.rates.(j) = 0.0 && r > 0.0 then Vec.push k.rated j;
      k.rates.(j) <- k.rates.(j) +. r
    done
  done

(* Earliest completion date of the current plan, folded into
   [scratch.(0)] (drivers continue the min fold with their own arrival /
   fault / boundary dates — the float never crosses a call boundary). *)
let fold_next_completion k =
  k.scratch.(0) <- infinity;
  let nowv = k.clock.(0) in
  for i = 0 to Vec.length k.rated - 1 do
    let j = Vec.get k.rated i in
    let t = nowv +. (k.remaining.(j) /. k.rates.(j)) in
    if t < k.scratch.(0) then k.scratch.(0) <- t
  done

(* Does any plan run execute this segment (a machine that is neither
   down-for-good nor crashing at the segment end)? *)
let rec any_live_run k i =
  if i >= Plan_buf.runs k.plan then false
  else
    let m = Plan_buf.run_machine k.plan i in
    (k.up.(m) && not k.crashing.(m)) || any_live_run k (i + 1)

(* ---- crash-loss bookkeeping --------------------------------------------- *)

let begin_step k =
  for i = 0 to Vec.length k.crashed - 1 do
    k.crashing.(Vec.get k.crashed i) <- false
  done;
  Vec.clear k.crashed

(* Mark machines whose down-edge falls inside the segment ending at
   [scratch.(1)]: their in-flight work is destroyed under [Crash]. *)
let rec scan_crash_edges k = function
  | (e : Fault.edge) :: rest when e.Fault.time <= k.scratch.(1) +. 1e-12 ->
    let m = e.Fault.machine in
    if (not e.Fault.up) && k.up.(m) && not k.crashing.(m) then begin
      k.crashing.(m) <- true;
      Vec.push k.crashed m
    end;
    scan_crash_edges k rest
  | _ :: _ | [] -> ()

let crash_scan k = if k.loss = Fault.Crash then scan_crash_edges k k.trace

(* Rate lost to crashing machines, accumulated per entry in canonical
   plan order ([lost_rates] over the support was zeroed by
   {!load_rates}). *)
let load_lost_rates k =
  if Vec.length k.crashed > 0 then begin
    let b = k.plan in
    for i = 0 to Plan_buf.runs b - 1 do
      let mid = Plan_buf.run_machine b i in
      if k.crashing.(mid) then begin
        let speed = k.speeds.(mid) in
        for e = 0 to Plan_buf.run_length b i - 1 do
          let j = Plan_buf.entry_job b i e in
          k.lost_rates.(j) <- k.lost_rates.(j)
                              +. (Plan_buf.entry_share b i e *. speed)
        done
      end
    done
  end

(* ---- fluid advance ------------------------------------------------------ *)

let complete k j t =
  k.remaining.(j) <- 0.0;
  k.ctimes.(j) <- t;
  k.n_completed <- k.n_completed + 1;
  Vec.push k.completions j

(* Advance every rated job from [clock.(0)] to [scratch.(1)], pushing
   completions (unsorted — drivers order the batch with their own key).
   Does not advance the clock: drivers do, after materializing the
   segment. *)
let advance k =
  let t_next = k.scratch.(1) in
  let nowv = k.clock.(0) in
  let dt = t_next -. nowv in
  let eps_t = 1e-9 *. fmax 1.0 (abs_float t_next) in
  Vec.clear k.completions;
  for i = 0 to Vec.length k.rated - 1 do
    let j = Vec.get k.rated i in
    if k.lost_rates.(j) > 0.0 then begin
      (* A crashing machine delivers nothing this segment: its share of
         the work is destroyed, not banked. *)
      k.remaining.(j) <-
        k.remaining.(j) -. ((k.rates.(j) -. k.lost_rates.(j)) *. dt);
      k.lost.(j) <- k.lost.(j) +. (k.lost_rates.(j) *. dt);
      k.lost_acc.(0) <- k.lost_acc.(0) +. (k.lost_rates.(j) *. dt);
      if k.remaining.(j) <= 1e-9 *. fmax k.size.(j) k.yard.(0) then
        complete k j t_next
    end
    else begin
      let t_fin = nowv +. (k.remaining.(j) /. k.rates.(j)) in
      if t_fin <= t_next +. eps_t then complete k j t_fin
      else begin
        k.remaining.(j) <- k.remaining.(j) -. (k.rates.(j) *. dt);
        (* Sliver rule: work below 1e-9 of the yardstick will never pay
           for another segment — finish it here. *)
        if k.remaining.(j) <= 1e-9 *. fmax k.size.(j) k.yard.(0) then
          complete k j t_next
      end
    end
  done;
  for i = 0 to Vec.length k.tiny - 1 do
    let j = Vec.get k.tiny i in
    if
      Float.is_nan k.ctimes.(j)
      && k.remaining.(j) <= 1e-9 *. fmax k.size.(j) k.yard.(0)
    then complete k j t_next
  done;
  Vec.clear k.tiny

(* ---- fault application -------------------------------------------------- *)

(* Pop every availability edge due at [clock.(0)] and apply the state
   flips, recording each as [2*machine + (up ? 1 : 0)] in [flips] so a
   driver can emit its Failure/Recovery events (a machine can flip twice
   in one batch — down then up at the same date — so the direction must
   travel with the entry, not be read back from [up]). *)
let rec pop_fault_edges k =
  match k.trace with
  | e :: rest when e.Fault.time <= k.clock.(0) +. 1e-12 ->
    k.trace <- rest;
    let m = e.Fault.machine in
    if e.Fault.up <> k.up.(m) then begin
      k.up.(m) <- e.Fault.up;
      Vec.push k.flips ((2 * m) + (if e.Fault.up then 1 else 0))
    end;
    pop_fault_edges k
  | _ :: _ | [] -> ()

let pop_faults k =
  Vec.clear k.flips;
  pop_fault_edges k
