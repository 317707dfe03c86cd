module Q = Gripps_numeric.Rat
module B = Gripps_numeric.Bigint
module Vec = Gripps_collections.Vec
module ZFlow = Gripps_flow.Maxflow.Make (Gripps_numeric.Bigint_field)
module ZMcmf = Gripps_flow.Mcmf.Make (Gripps_numeric.Bigint_field)

type job_spec = {
  jid : int;
  release : Q.t;
  size : Q.t;
  remaining : Q.t;
  machines : int list;
}

type machine_spec = { mid : int; speed : Q.t }

type problem = { now : Q.t; jobs : job_spec list; machines : machine_spec list }

type interval = { lo : Q.t; hi : Q.t }

type assignment = {
  s_star : Q.t;
  intervals : interval array;
  work : (int * int * int * Q.t) list;
}

(* Time points are affine functions of the objective F: value a + b·F with
   b >= 0 (b = 0 for the current date and release dates, b = W_j for the
   deadline of job j).  Inside a milestone interval their order is fixed;
   sorting by (value at F, slope) yields the order valid on [F, F + ε),
   which is exactly what the Newton iteration needs when starting from a
   milestone. *)
(* ------------------------------------------------------------------ *)
(* Guardrail budgets.  Both solver pipelines iterate (milestone probes, *)
(* Newton steps, bisection): a budget caps the number of iterations and *)
(* the wall time so a pathological instance degrades service (callers   *)
(* fall back to a cheaper pipeline) instead of hanging the run.         *)
(* ------------------------------------------------------------------ *)

type budget = { max_iters : int; max_seconds : float }

let default_budget = { max_iters = 100_000; max_seconds = infinity }

exception Budget_exhausted of { stage : string; iters : int; elapsed : float }

(* A ticker counts one solver iteration (feasibility probe or Newton
   step) per call and raises once the budget is blown. *)
let make_ticker budget stage =
  let count = ref 0 and t0 = Sys.time () in
  fun () ->
    incr count;
    if
      !count > budget.max_iters
      || (budget.max_seconds < infinity && Sys.time () -. t0 > budget.max_seconds)
    then
      raise
        (Budget_exhausted { stage; iters = !count; elapsed = Sys.time () -. t0 })

(* ------------------------------------------------------------------ *)
(* Instrumentation.  Observability counters over every solver run since *)
(* the last [reset_stats], the rational fast-path pair ([Q.fast_hits],  *)
(* [Q.fast_falls]) included; the perf harness and the §5.3 overhead     *)
(* study read them to attribute wall time to probes vs. network work.   *)
(* ------------------------------------------------------------------ *)

type stats = {
  exact_probes : int;
  float_probes : int;
  graph_builds : int;
  warm_updates : int;
  augmenting_paths : int;
  rat_fast_hits : int;
  rat_fast_falls : int;
}

module Obs = Gripps_obs.Obs

let exact_probe_count = Obs.Counter.make "solver.exact_probes"
let float_probe_count = Obs.Counter.make "solver.float_probes"
let build_count = Obs.Counter.make "solver.graph_builds"
let warm_update_count = Obs.Counter.make "solver.warm_updates"
let augmenting_path_count = Obs.Counter.make "solver.augmenting_paths"

let counters =
  [ exact_probe_count; float_probe_count; build_count; warm_update_count;
    augmenting_path_count; Q.fast_hits; Q.fast_falls ]

let reset_stats () = List.iter Obs.Counter.reset counters

let stats () =
  { exact_probes = Obs.Counter.value exact_probe_count;
    float_probes = Obs.Counter.value float_probe_count;
    graph_builds = Obs.Counter.value build_count;
    warm_updates = Obs.Counter.value warm_update_count;
    augmenting_paths = Obs.Counter.value augmenting_path_count;
    rat_fast_hits = Obs.Counter.value Q.fast_hits;
    rat_fast_falls = Obs.Counter.value Q.fast_falls }

(* Debug/bench knob: with [warm_enabled := false] every exact probe
   rebuilds the flow network from scratch (the pre-warm-start pipeline);
   the perf harness uses it to verify that warm and cold paths agree. *)
let warm_enabled = ref true

type point = { a : Q.t; b : Q.t }

let point_value p ~f = Q.add p.a (Q.mul p.b f)

let validate p =
  if p.machines = [] then invalid_arg "Stretch_solver: no machines";
  List.iter
    (fun m ->
      if Q.sign m.speed <= 0 then invalid_arg "Stretch_solver: non-positive speed")
    p.machines;
  List.iter
    (fun j ->
      if Q.sign j.size <= 0 then invalid_arg "Stretch_solver: non-positive size";
      if Q.sign j.remaining < 0 then
        invalid_arg "Stretch_solver: negative remaining work";
      if Q.sign j.remaining > 0 && j.machines = [] then
        invalid_arg "Stretch_solver: pending job with no machine")
    p.jobs

(* A normalized view: only jobs with pending work. *)
type norm = {
  now : Q.t;
  jobs : job_spec array;
  machines : machine_spec array;
  machine_index : (int, int) Hashtbl.t;
  total : Q.t;
}

let normalize p =
  validate p;
  let jobs = Array.of_list (List.filter (fun j -> Q.sign j.remaining > 0) p.jobs) in
  let machines = Array.of_list p.machines in
  let machine_index = Hashtbl.create 16 in
  Array.iteri (fun i m -> Hashtbl.replace machine_index m.mid i) machines;
  Array.iter
    (fun (j : job_spec) ->
      List.iter
        (fun mid ->
          if not (Hashtbl.mem machine_index mid) then
            invalid_arg "Stretch_solver: job references unknown machine")
        j.machines)
    jobs;
  let total = Array.fold_left (fun acc j -> Q.add acc j.remaining) Q.zero jobs in
  { now = p.now; jobs; machines; machine_index; total }

let deadline_point j = { a = j.release; b = j.size }

(* Start of job j's schedulable window. *)
let window_start n j = Q.max_rat n.now j.release

type structure = {
  points : point array;  (* strictly increasing by (value at f, slope) *)
  ints : (point * point) array;
}

(* Interval geometry at objective [f]: the sorted point array together
   with the cached value of every point at [f] and, per job, the indices
   of its window-start and deadline points.  A job's window covers
   interval [t] iff [start_idx <= t && t + 1 <= dead_idx] — two integer
   comparisons instead of a symbolic rational comparison per
   (job × interval) pair, and each point's value is computed once per
   objective instead of once per comparison. *)
type geometry = {
  s : structure;
  values : Q.t array;    (* values.(i) = value of points.(i) at [f] *)
  start_idx : int array;
  dead_idx : int array;  (* -1 when the deadline lies before [now] *)
}

let build_geometry n ~f =
  let v = Vec.create () in
  Vec.push v (n.now, { a = n.now; b = Q.zero });
  Array.iter
    (fun j ->
      if Q.gt j.release n.now then
        Vec.push v (j.release, { a = j.release; b = Q.zero });
      let d = deadline_point j in
      Vec.push v (point_value d ~f, d))
    n.jobs;
  (* Sorting by (value, slope) yields the order valid on [f, f + ε); a
     pair equal on both is the same affine function, so dedup under the
     same key matches the symbolic sort_uniq of the points themselves. *)
  let cmp (va, pa) (vb, pb) =
    match Q.compare va vb with 0 -> Q.compare pa.b pb.b | c -> c
  in
  Vec.sort_uniq cmp v;
  (* Drop points before the current date (slopes are all >= 0, so only a
     strictly smaller value sorts below the now-point). *)
  let first = ref 0 in
  while !first < Vec.length v && Q.lt (fst (Vec.get v !first)) n.now do
    incr first
  done;
  let npts = Vec.length v - !first in
  let points = Array.init npts (fun i -> snd (Vec.get v (!first + i))) in
  let values = Array.init npts (fun i -> fst (Vec.get v (!first + i))) in
  let find value slope =
    let lo = ref 0 and hi = ref (npts - 1) and res = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let c =
        match Q.compare values.(mid) value with
        | 0 -> Q.compare points.(mid).b slope
        | c -> c
      in
      if c = 0 then begin
        res := mid;
        lo := !hi + 1
      end
      else if c < 0 then lo := mid + 1
      else hi := mid - 1
    done;
    !res
  in
  let start_idx =
    Array.map
      (fun j ->
        let i = find (window_start n j) Q.zero in
        if i < 0 then
          failwith "Stretch_solver: internal error (missing start point)";
        i)
      n.jobs
  in
  let dead_idx =
    Array.map
      (fun j ->
        let d = deadline_point j in
        find (point_value d ~f) d.b)
      n.jobs
  in
  let ints =
    Array.init (max 0 (npts - 1)) (fun t -> (points.(t), points.(t + 1)))
  in
  { s = { points; ints }; values; start_idx; dead_idx }

(* Node numbering for the flow graphs. *)
let source = 0
let sink = 1
let job_node ji = 2 + ji
let cell_node ~njobs ~nmach t mi = 2 + njobs + (t * nmach) + mi

(* ------------------------------------------------------------------ *)
(* Exact graphs.  All capacities are rationals; we scale them to a     *)
(* common denominator and run the flow over integers — Dinic and the   *)
(* min-cost augmentation never divide, and integer arithmetic avoids a *)
(* gcd normalization per operation.                                    *)
(* ------------------------------------------------------------------ *)

let lcm a b = B.mul (B.div a (B.gcd a b)) b

(* A persistent flow network for one interval structure.  Capacities sit
   on an integer grid: [z = q / grid], with [grid] chosen at build time
   so every capacity is integral.  Warm re-installations at a new
   objective may refine the grid by an integer factor (the flow already
   routed is rescaled in place by {!ZFlow.scale_capacities}). *)
type built = {
  graph : ZFlow.t;
  mutable grid : Q.t;   (* work units per integer flow unit *)
  job_edges : (int * int * int * int) list;  (* jobindex, t, machindex, edge *)
  cell_edges : (int * int * int) list;       (* t, machindex, edge to sink *)
  structure : structure;
  start_idx : int array;
  dead_idx : int array;
  mutable values : Q.t array;  (* point values at the installed objective *)
  mutable f : Q.t;             (* objective the capacities encode *)
  mutable total_scaled : B.t;
  mutable solved : bool;       (* residual state holds a valid flow *)
  mutable aug_seen : int;
}

let to_z b q =
  let r = Q.div q b.grid in
  if not (B.equal (Q.den r) B.one) then
    failwith "Stretch_solver: internal error (capacity off the integer grid)";
  Q.num r

let of_z b w = Q.mul (Q.of_bigint w) b.grid

let cell_cap n (values : Q.t array) t mi =
  let len = Q.sub values.(t + 1) values.(t) in
  Q.mul len n.machines.(mi).speed

let build_graph n (geo : geometry) ~f =
  Obs.Counter.incr build_count;
  let njobs = Array.length n.jobs and nmach = Array.length n.machines in
  let nints = Array.length geo.s.ints in
  let cell_caps =
    Array.init nints (fun t ->
        Array.init nmach (fun mi -> cell_cap n geo.values t mi))
  in
  (* Common denominator of every capacity, then strip the common factor of
     the numerators to keep the integers as small as possible. *)
  let scale = ref B.one in
  Array.iter (fun j -> scale := lcm !scale (Q.den j.remaining)) n.jobs;
  Array.iter (Array.iter (fun c -> scale := lcm !scale (Q.den c))) cell_caps;
  let raw_scale = !scale in
  let raw_z q = B.mul (Q.num q) (B.div raw_scale (Q.den q)) in
  let shrink = ref B.zero in
  Array.iter (fun j -> shrink := B.gcd !shrink (raw_z j.remaining)) n.jobs;
  Array.iter (Array.iter (fun c -> shrink := B.gcd !shrink (raw_z c))) cell_caps;
  let shrink = if B.is_zero !shrink then B.one else !shrink in
  let zq q = B.div (raw_z q) shrink in
  let g = ZFlow.create ~n:(2 + njobs + (nints * nmach)) in
  Array.iteri
    (fun ji j ->
      ignore (ZFlow.add_edge g ~src:source ~dst:(job_node ji) ~cap:(zq j.remaining)))
    n.jobs;
  let cell_edges = ref [] and job_edges = ref [] in
  (* Zero-length intervals (ties at a milestone) are kept: their capacity
     is 0 at [f] but grows for F > f, and the Newton step must account for
     that growth when measuring the cut's slope. *)
  for t = 0 to nints - 1 do
    for mi = 0 to nmach - 1 do
      let e =
        ZFlow.add_edge g ~src:(cell_node ~njobs ~nmach t mi) ~dst:sink
          ~cap:(zq cell_caps.(t).(mi))
      in
      cell_edges := (t, mi, e) :: !cell_edges
    done
  done;
  Array.iteri
    (fun ji j ->
      let zrem = zq j.remaining in
      for t = geo.start_idx.(ji) to geo.dead_idx.(ji) - 1 do
        List.iter
          (fun mid ->
            let mi = Hashtbl.find n.machine_index mid in
            let e =
              ZFlow.add_edge g ~src:(job_node ji)
                ~dst:(cell_node ~njobs ~nmach t mi) ~cap:zrem
            in
            job_edges := (ji, t, mi, e) :: !job_edges)
          j.machines
      done)
    n.jobs;
  { graph = g; grid = Q.make shrink raw_scale; job_edges = !job_edges;
    cell_edges = !cell_edges; structure = geo.s; start_idx = geo.start_idx;
    dead_idx = geo.dead_idx; values = geo.values; f;
    total_scaled = zq n.total; solved = false; aug_seen = 0 }

(* Re-install the capacities of an existing network at a new objective
   with the same structure, preserving the flow (warm start).  Only the
   cell -> sink capacities depend on F. *)
let install b n ~f ~values =
  Obs.Counter.incr warm_update_count;
  (* The point order must still hold at [f] (crossing-free invariant). *)
  Array.iteri
    (fun i v ->
      if i > 0 && Q.gt values.(i - 1) v then
        failwith "Stretch_solver: internal error (structure crossed)")
    values;
  (* Refine the integer grid when the new capacities need it. *)
  let k = ref B.one in
  List.iter
    (fun (t, mi, _e) -> k := lcm !k (Q.den (Q.div (cell_cap n values t mi) b.grid)))
    b.cell_edges;
  if not (B.equal !k B.one) then begin
    ZFlow.scale_capacities b.graph !k;
    b.grid <- Q.div b.grid (Q.of_bigint !k);
    b.total_scaled <- B.mul b.total_scaled !k
  end;
  List.iter
    (fun (t, mi, e) ->
      ZFlow.update_capacity b.graph ~source ~sink e (to_z b (cell_cap n values t mi)))
    b.cell_edges;
  b.values <- values;
  b.f <- f

let sync_augmentations b =
  let a = ZFlow.augmentations b.graph in
  Obs.Counter.add augmenting_path_count (a - b.aug_seen);
  b.aug_seen <- a

let probe b =
  Obs.Counter.incr exact_probe_count;
  let flow = ZFlow.max_flow ~warm:(b.solved && !warm_enabled) b.graph ~source ~sink in
  b.solved <- true;
  sync_augmentations b;
  if Obs.Journal.on () then
    Obs.Journal.record
      (Obs.Journal.Probe
         { pipeline = "exact"; stretch = Q.to_float b.f;
           feasible = B.equal flow b.total_scaled });
  flow

let same_structure (s : structure) (s' : structure) =
  Array.length s.points = Array.length s'.points
  && Array.for_all2
       (fun p p' -> Q.equal p.a p'.a && Q.equal p.b p'.b)
       s.points s'.points

(* Obtain a network matching the structure at [f]: reuse (and warm-update)
   the cached one when the interval structure is unchanged, else build
   cold. *)
let acquire ~cache n ~f =
  let geo = build_geometry n ~f in
  match !cache with
  | Some b when !warm_enabled && same_structure b.structure geo.s ->
    if not (Q.equal b.f f) then install b n ~f ~values:geo.values;
    b
  | _ ->
    let b = build_graph n geo ~f in
    cache := Some b;
    b

(* Move a network to a new objective inside the same crossing-free
   interval: values are recomputed directly, skipping the structure
   rebuild.  With warm starts disabled this degenerates to a cold
   rebuild, reproducing the pre-warm pipeline. *)
let shift ~cache b n ~f =
  if Q.equal b.f f then b
  else if !warm_enabled then begin
    install b n ~f ~values:(Array.map (fun p -> point_value p ~f) b.structure.points);
    b
  end
  else acquire ~cache n ~f

let feasible_norm n ~f =
  if Array.length n.jobs = 0 then true
  else begin
    let b = acquire ~cache:(ref None) n ~f in
    B.equal (probe b) b.total_scaled
  end

(* ------------------------------------------------------------------ *)
(* Float probes.  Both pipelines decide System (1) in doubles: the      *)
(* float pipeline throughout, the exact one to pre-locate its milestone *)
(* bracket.  Each solve owns one workspace for all its probes; none is  *)
(* global, because parallel sweeps solve on several domains at once.    *)
(* ------------------------------------------------------------------ *)

module FMax = Gripps_flow.Float_maxflow

type fnorm = {
  fnow : float;
  frelease : float array;   (* original release dates *)
  fwstart : float array;    (* max (now, release) *)
  fsize : float array;
  frem : float array;
  fmach : int list array;   (* internal machine indices *)
  fspeed : float array;
  fjid : int array;
  fmid : int array;
  ftotal : float;
}

let fnormalize n =
  let njobs = Array.length n.jobs in
  { fnow = Q.to_float n.now;
    frelease = Array.map (fun j -> Q.to_float j.release) n.jobs;
    fwstart = Array.map (fun j -> Q.to_float (window_start n j)) n.jobs;
    fsize = Array.map (fun j -> Q.to_float j.size) n.jobs;
    frem = Array.map (fun j -> Q.to_float j.remaining) n.jobs;
    fmach =
      Array.map
        (fun (j : job_spec) -> List.map (Hashtbl.find n.machine_index) j.machines)
        n.jobs;
    fspeed = Array.map (fun m -> Q.to_float m.speed) n.machines;
    fjid = Array.map (fun j -> j.jid) n.jobs;
    fmid = Array.map (fun m -> m.mid) n.machines;
    ftotal =
      (let t = ref 0.0 in
       for ji = 0 to njobs - 1 do t := !t +. Q.to_float n.jobs.(ji).remaining done;
       !t) }

type fwork = {
  g : FMax.t;
  mutable pts : float array;  (* pts.(0 .. npts-1): the interval bounds *)
  mutable npts : int;
  mutable used : bool array;  (* per (interval, machine) cell: has a job edge *)
}

let fwork () = { g = FMax.create ~n:2; pts = [||]; npts = 0; used = [||] }

(* Interval structure at objective [f]: the time points from now on,
   sorted and distinct, into [ws.pts]. *)
let fpoints ws fn ~f =
  let njobs = Array.length fn.frem in
  if Array.length ws.pts < 1 + (2 * njobs) then ws.pts <- Array.make (1 + (2 * njobs)) 0.0;
  let pts = ws.pts in
  let k = ref 0 in
  let insert t =
    if t >= fn.fnow then begin
      let i = ref !k in
      while !i > 0 && pts.(!i - 1) > t do decr i done;
      if !i = 0 || pts.(!i - 1) <> t then begin
        Array.blit pts !i pts (!i + 1) (!k - !i);
        pts.(!i) <- t;
        incr k
      end
    end
  in
  insert fn.fnow;
  Array.iter insert fn.fwstart;
  for ji = 0 to njobs - 1 do
    insert (fn.frelease.(ji) +. (f *. fn.fsize.(ji)))
  done;
  ws.npts <- !k

(* Max-flow feasibility graph at [f] into [ws.g]; the source edge of job
   [ji] is handle [2 * ji].  [on_job_edge ji t mi e] sees each job ->
   cell edge. *)
let fbuild ?(on_job_edge = fun _ _ _ _ -> ()) ws fn ~f =
  let njobs = Array.length fn.frem and nmach = Array.length fn.fspeed in
  fpoints ws fn ~f;
  let pts = ws.pts and g = ws.g in
  let nints = max 0 (ws.npts - 1) in
  FMax.reset g ~n:(2 + njobs + (nints * nmach));
  for ji = 0 to njobs - 1 do
    ignore (FMax.add_edge g ~src:source ~dst:(job_node ji) ~cap:fn.frem.(ji))
  done;
  if Array.length ws.used < nints * nmach then ws.used <- Array.make (nints * nmach) false
  else Array.fill ws.used 0 (nints * nmach) false;
  for ji = 0 to njobs - 1 do
    let dl = fn.frelease.(ji) +. (f *. fn.fsize.(ji)) in
    for t = 0 to nints - 1 do
      if pts.(t) >= fn.fwstart.(ji) -. 1e-12 && pts.(t + 1) <= dl +. 1e-12 then
        List.iter
          (fun mi ->
            ws.used.((t * nmach) + mi) <- true;
            on_job_edge ji t mi
              (FMax.add_edge g ~src:(job_node ji) ~dst:(cell_node ~njobs ~nmach t mi)
                 ~cap:fn.frem.(ji)))
          fn.fmach.(ji)
    done
  done;
  for t = 0 to nints - 1 do
    let len = pts.(t + 1) -. pts.(t) in
    for mi = 0 to nmach - 1 do
      if ws.used.((t * nmach) + mi) then
        ignore
          (FMax.add_edge g ~src:(cell_node ~njobs ~nmach t mi) ~dst:sink
             ~cap:(len *. fn.fspeed.(mi)))
    done
  done

let journal_probe ~f ok =
  if Obs.Journal.on () then
    Obs.Journal.record
      (Obs.Journal.Probe { pipeline = "float"; stretch = f; feasible = ok })

(* Aggregate feasibility, used only to pre-locate the exact pipeline's
   milestone bracket; bracket endpoints are re-verified exactly, so a
   wrong answer here costs time, never correctness. *)
let feasible_float ws n ~f =
  Obs.Counter.incr float_probe_count;
  if Array.length n.jobs = 0 then true
  else begin
    let fn = fnormalize n in
    fbuild ws fn ~f;
    let ok = FMax.max_flow ws.g ~source ~sink >= fn.ftotal *. (1.0 -. 1e-9) in
    journal_probe ~f ok;
    ok
  end

(* The float pipeline's probe.  Feasibility must hold per job, not just in
   aggregate: with a tolerance relative to the total work, the entire
   (microscopic) remaining work of a nearly-finished job could be
   "forgiven", its deadline would stop pushing the objective, and the job
   would starve until the plan drains. *)
let ffeasible ws fn ~f =
  Obs.Counter.incr float_probe_count;
  let njobs = Array.length fn.frem in
  let ok =
    njobs = 0
    || begin
      fbuild ws fn ~f;
      ignore (FMax.max_flow ws.g ~source ~sink);
      let ji = ref 0 in
      while !ji < njobs && FMax.flow_on ws.g (2 * !ji) >= fn.frem.(!ji) *. (1.0 -. 1e-9) do
        incr ji
      done;
      !ji = njobs
    end
  in
  journal_probe ~f ok;
  ok

(* Milestones: positive F where a deadline crosses another deadline, a
   release date, or the current date. *)
let milestones n =
  let cands = Vec.create () in
  let constants =
    n.now :: (Array.to_list n.jobs |> List.map (fun j -> window_start n j))
  in
  Array.iter
    (fun j ->
      List.iter
        (fun c ->
          let f = Q.div (Q.sub c j.release) j.size in
          if Q.sign f > 0 then Vec.push cands f)
        constants)
    n.jobs;
  let njobs = Array.length n.jobs in
  for a = 0 to njobs - 1 do
    for b = a + 1 to njobs - 1 do
      let ja = n.jobs.(a) and jb = n.jobs.(b) in
      if not (Q.equal ja.size jb.size) then begin
        let f = Q.div (Q.sub jb.release ja.release) (Q.sub ja.size jb.size) in
        if Q.sign f > 0 then Vec.push cands f
      end
    done
  done;
  Vec.sort_uniq Q.compare cands;
  Vec.to_array cands

(* Newton / Dinkelbach iteration on the parametric min cut, starting at
   [f0] and restricted to a crossing-free interval [f0, hi].  The outcome
   certifies the bracket as a side effect of the iteration itself:
   - [Feasible_at_start]: [f0] is already feasible (search further left);
   - [Converged (f, built)]: [f0] was infeasible and [f] is the smallest
     feasible objective in the interval, with the flow network solved at
     [f] (reused by [solve] to avoid one more max-flow);
   - [Exceeded]: no feasible objective in [f0, hi].
   Soundness: within a crossing-free interval the min-cut capacity is a
   minimum of affine functions of F, hence concave; the line of the cut
   found at an infeasible iterate upper-bounds it, so the Newton step
   never overshoots the interval's first feasible point. *)
type newton_outcome =
  | Feasible_at_start of built
  | Converged of Q.t * built
  | Exceeded

let newton_bounded ~tick ~cache n ~f:f0 ~hi =
  let rec go b f iter =
    tick ();
    let flow = probe b in
    if B.equal flow b.total_scaled then
      if iter = 0 then Feasible_at_start b else Converged (f, b)
    else begin
      let deficit = of_z b (B.sub b.total_scaled flow) in
      let cut = ZFlow.min_cut b.graph ~source in
      (* Growth rate of the cut capacity: only cell -> sink edges depend
         on F; their capacity slope is speed × (hi.b - lo.b). *)
      let njobs = Array.length n.jobs and nmach = Array.length n.machines in
      let rho =
        List.fold_left
          (fun acc (t, mi, _e) ->
            if cut.(cell_node ~njobs ~nmach t mi) then begin
              let lo, hi = b.structure.ints.(t) in
              let slope = Q.sub hi.b lo.b in
              Q.add acc (Q.mul n.machines.(mi).speed slope)
            end
            else acc)
          Q.zero b.cell_edges
      in
      if Q.sign rho <= 0 then Exceeded
      else begin
        let f_next = Q.add f (Q.div deficit rho) in
        match hi with
        | Some h when Q.gt f_next h -> Exceeded
        | Some _ | None -> go (shift ~cache b n ~f:f_next) f_next (iter + 1)
      end
    end
  in
  go (acquire ~cache n ~f:f0) f0 0

(* Full search: float-guided milestone bracket, certified and refined by
   the exact Newton iteration.  Returns the optimum and the solved flow
   network at the optimum. *)
let find_optimum ?(floor = Q.zero) ~tick n =
  (* Smallest F at which every pending deadline is >= now. *)
  let f_base =
    Array.fold_left
      (fun acc j -> Q.max_rat acc (Q.div (Q.sub n.now j.release) j.size))
      floor n.jobs
  in
  let ms_all = milestones n in
  (* [ms_all] is sorted: keep the suffix strictly above [f_base]. *)
  let skip = ref 0 in
  while !skip < Array.length ms_all && not (Q.gt ms_all.(!skip) f_base) do
    incr skip
  done;
  let ms = Array.sub ms_all !skip (Array.length ms_all - !skip) in
  let len = Array.length ms in
  (* Locate the first feasible milestone with the float fast path; the
     exact loop below repairs any misjudgment. *)
  let ws = fwork () in
  let lo = ref 0 and hi = ref len in
  tick ();
  if not (feasible_float ws n ~f:(Q.to_float f_base)) then begin
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      tick ();
      if feasible_float ws n ~f:(Q.to_float ms.(mid)) then hi := mid else lo := mid + 1
    done
  end;
  let cache = ref None in
  let rec attempt i =
    if i > len then failwith "Stretch_solver: no feasible stretch";
    let start = if i = 0 then f_base else ms.(i - 1) in
    let bound = if i < len then Some ms.(i) else None in
    match newton_bounded ~tick ~cache n ~f:start ~hi:bound with
    | Converged (f, b) -> (f, b)
    | Feasible_at_start b ->
      if i = 0 then (f_base, b) else attempt (i - 1)
    | Exceeded -> attempt (i + 1)
  in
  attempt !lo

let optimal_max_stretch ?(budget = default_budget) ?(floor = Q.zero) p =
  Obs.Span.with_ "solver.exact" (fun () ->
      let n = normalize p in
      if Array.length n.jobs = 0 then floor
      else fst (find_optimum ~floor ~tick:(make_ticker budget "exact") n))

let feasible p ~stretch =
  let n = normalize p in
  Array.for_all
    (fun j -> Q.ge (point_value (deadline_point j) ~f:stretch) n.now)
    n.jobs
  && feasible_norm n ~f:stretch

let solve ?(budget = default_budget) ?(floor = Q.zero) ?(refine = false) p =
  Obs.Span.with_ "solver.exact" @@ fun () ->
  let n = normalize p in
  if Array.length n.jobs = 0 then { s_star = floor; intervals = [||]; work = [] }
  else begin
    (* find_optimum hands back the flow network already solved at the
       optimum, saving one max-flow in the unrefined path. *)
    let s_star, b = find_optimum ~floor ~tick:(make_ticker budget "exact") n in
    (* [b] is installed at [s_star], so its cached point values are the
       interval bounds of the optimum. *)
    let intervals =
      Array.init (Array.length b.structure.ints) (fun t ->
          { lo = b.values.(t); hi = b.values.(t + 1) })
    in
    let work_of_flow ~of_z flow_on job_edges =
      List.filter_map
        (fun (ji, t, mi, e) ->
          let w = flow_on e in
          if B.sign w > 0 then
            Some (n.jobs.(ji).jid, t, n.machines.(mi).mid, of_z w)
          else None)
        job_edges
    in
    if not refine then
      { s_star; intervals;
        work = work_of_flow ~of_z:(of_z b) (ZFlow.flow_on b.graph) b.job_edges }
    else begin
      (* System (2): same network with cost midpoint(t)/W_j per unit of
         work of job j placed in interval t.  Costs are scaled to a
         common integer denominator of their own (scaling all costs by a
         positive constant does not change the argmin). *)
      let njobs = Array.length n.jobs and nmach = Array.length n.machines in
      let nints = Array.length b.structure.ints in
      let half = Q.of_ints 1 2 in
      let cost_of ji t =
        let iv = intervals.(t) in
        let mid = Q.mul half (Q.add iv.lo iv.hi) in
        Q.div mid n.jobs.(ji).size
      in
      let cost_scale = ref B.one in
      List.iter
        (fun (ji, t, _mi, _e) -> cost_scale := lcm !cost_scale (Q.den (cost_of ji t)))
        b.job_edges;
      let to_zcost q = B.mul (Q.num q) (B.div !cost_scale (Q.den q)) in
      let to_zcap = to_z b in
      let g = ZMcmf.create ~n:(2 + njobs + (nints * nmach)) in
      Array.iteri
        (fun ji j ->
          ignore
            (ZMcmf.add_edge g ~src:source ~dst:(job_node ji)
               ~cap:(to_zcap j.remaining) ~cost:B.zero))
        n.jobs;
      List.iter
        (fun (t, mi, _) ->
          let iv = intervals.(t) in
          let len = Q.sub iv.hi iv.lo in
          ignore
            (ZMcmf.add_edge g ~src:(cell_node ~njobs ~nmach t mi) ~dst:sink
               ~cap:(to_zcap (Q.mul len n.machines.(mi).speed)) ~cost:B.zero))
        b.cell_edges;
      let refined_edges =
        List.map
          (fun (ji, t, mi, _) ->
            let e =
              ZMcmf.add_edge g ~src:(job_node ji) ~dst:(cell_node ~njobs ~nmach t mi)
                ~cap:(to_zcap n.jobs.(ji).remaining) ~cost:(to_zcost (cost_of ji t))
            in
            (ji, t, mi, e))
          b.job_edges
      in
      let flow, _cost = ZMcmf.min_cost_max_flow g ~source ~sink in
      if not (B.equal flow b.total_scaled) then
        failwith "Stretch_solver: internal error (refined optimum not feasible)";
      { s_star; intervals;
        work = work_of_flow ~of_z:(of_z b) (ZMcmf.flow_on g) refined_edges }
    end
  end

(* ------------------------------------------------------------------ *)
(* Floating-point pipeline (used by the on-line schedulers).           *)
(* ------------------------------------------------------------------ *)

(* The refine path quantizes capacities and costs onto an integer grid:
   successive-shortest-paths over real capacities can make unboundedly
   many microscopic augmentations, while over integers the number of
   augmentations is bounded by the total quantized demand. *)
module IMcmf = Gripps_flow.Mcmf.Make (Gripps_numeric.Field.Int)

let fmilestones fn =
  let njobs = Array.length fn.frem in
  let cands = ref [] in
  let constants = fn.fnow :: Array.to_list fn.fwstart in
  for ji = 0 to njobs - 1 do
    List.iter
      (fun c ->
        let f = (c -. fn.frelease.(ji)) /. fn.fsize.(ji) in
        if f > 0.0 then cands := f :: !cands)
      constants
  done;
  for a = 0 to njobs - 1 do
    for b = a + 1 to njobs - 1 do
      if fn.fsize.(a) <> fn.fsize.(b) then begin
        let f = (fn.frelease.(b) -. fn.frelease.(a)) /. (fn.fsize.(a) -. fn.fsize.(b)) in
        if f > 0.0 then cands := f :: !cands
      end
    done
  done;
  List.sort_uniq Float.compare !cands

let optimal_float ?(floor = 0.0) ~tick ws fn =
  if Array.length fn.frem = 0 then floor
  else begin
    let f_base =
      Array.to_list fn.frelease
      |> List.mapi (fun ji r -> (fn.fnow -. r) /. fn.fsize.(ji))
      |> List.fold_left Float.max floor
    in
    tick ();
    if ffeasible ws fn ~f:f_base then f_base
    else begin
      let ms = Array.of_list (List.filter (fun m -> m > f_base) (fmilestones fn)) in
      let len = Array.length ms in
      let lo = ref 0 and hi = ref len in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        tick ();
        if ffeasible ws fn ~f:ms.(mid) then hi := mid else lo := mid + 1
      done;
      let f_lo = ref (if !lo = 0 then f_base else ms.(!lo - 1)) in
      let f_hi =
        ref
          (if !lo < len then ms.(!lo)
           else begin
             (* No feasible milestone: grow geometrically until feasible.
                The tick also bounds this loop, which could otherwise spin
                forever on a degenerate problem. *)
             let h = ref (Float.max 1e-9 (2.0 *. Float.max f_base 1e-9)) in
             while (tick (); not (ffeasible ws fn ~f:!h)) do h := !h *. 2.0 done;
             !h
           end)
      in
      (* Bisection to relative 1e-12. *)
      for _ = 1 to 60 do
        let mid = 0.5 *. (!f_lo +. !f_hi) in
        if mid > !f_lo && mid < !f_hi then begin
          tick ();
          if ffeasible ws fn ~f:mid then f_hi := mid else f_lo := mid
        end
      done;
      !f_hi
    end
  end

let optimal_max_stretch_float ?(budget = default_budget) ?floor p =
  Obs.Span.with_ "solver.float" (fun () ->
      let n = normalize p in
      optimal_float ?floor ~tick:(make_ticker budget "float") (fwork ()) (fnormalize n))

let solve_float ?(budget = default_budget) ?(floor = 0.0) ?(refine = false) p =
  Obs.Span.with_ "solver.float" @@ fun () ->
  let n = normalize p in
  let fn = fnormalize n in
  let njobs = Array.length fn.frem in
  if njobs = 0 then
    { s_star = Q.of_float floor; intervals = [||]; work = [] }
  else begin
    let ws = fwork () in
    let s_star = optimal_float ~floor ~tick:(make_ticker budget "float") ws fn in
    let nmach = Array.length fn.fspeed in
    let work =
      if not refine then begin
        let job_edges = ref [] in
        fbuild ws fn ~f:s_star ~on_job_edge:(fun ji t mi e ->
            job_edges := (ji, t, mi, e) :: !job_edges);
        ignore (FMax.max_flow ws.g ~source ~sink);
        List.filter_map
          (fun (ji, t, mi, e) ->
            let w = FMax.flow_on ws.g e in
            if w > 1e-12 then
              Some (fn.fjid.(ji), t, fn.fmid.(mi), Q.of_float w)
            else None)
          !job_edges
      end
      else begin
        (* System (2), quantized: capacities on a 2^36 grid relative to
           the total demand, costs on a 2^20 grid relative to the largest
           cost.  Quantization error is ~1e-11 of each job's work and is
           absorbed by the snap-to-demand step below. *)
        fpoints ws fn ~f:s_star;
        let points = ws.pts in
        let nints = max 0 (ws.npts - 1) in
        let cap_unit = fn.ftotal /. 68719476736.0 (* 2^36 *) in
        let zcap c = int_of_float (c /. cap_unit) in
        let max_cost =
          let m = ref 1e-300 in
          for ji = 0 to njobs - 1 do
            if nints > 0 then begin
              let c = points.(nints) /. fn.fsize.(ji) in
              if c > !m then m := c
            end
          done;
          !m
        in
        let cost_unit = max_cost /. 1048576.0 (* 2^20 *) in
        let zcost c = int_of_float (c /. cost_unit) in
        let g = IMcmf.create ~n:(2 + njobs + (nints * nmach)) in
        for ji = 0 to njobs - 1 do
          ignore
            (IMcmf.add_edge g ~src:source ~dst:(job_node ji)
               ~cap:(zcap fn.frem.(ji)) ~cost:0)
        done;
        let cell_used = Array.make (max 1 (nints * nmach)) false in
        let job_edges = ref [] in
        for ji = 0 to njobs - 1 do
          let dl = fn.frelease.(ji) +. (s_star *. fn.fsize.(ji)) in
          for t = 0 to nints - 1 do
            if points.(t) >= fn.fwstart.(ji) -. 1e-12 && points.(t + 1) <= dl +. 1e-12
            then begin
              let mid_t = 0.5 *. (points.(t) +. points.(t + 1)) in
              let cost = mid_t /. fn.fsize.(ji) in
              List.iter
                (fun mi ->
                  cell_used.((t * nmach) + mi) <- true;
                  let e =
                    IMcmf.add_edge g ~src:(job_node ji)
                      ~dst:(cell_node ~njobs ~nmach t mi)
                      ~cap:(zcap fn.frem.(ji)) ~cost:(zcost cost)
                  in
                  job_edges := (ji, t, mi, e) :: !job_edges)
                fn.fmach.(ji)
            end
          done
        done;
        for t = 0 to nints - 1 do
          let len = points.(t + 1) -. points.(t) in
          for mi = 0 to nmach - 1 do
            if cell_used.((t * nmach) + mi) then
              ignore
                (IMcmf.add_edge g ~src:(cell_node ~njobs ~nmach t mi) ~dst:sink
                   ~cap:(zcap (len *. fn.fspeed.(mi))) ~cost:0)
          done
        done;
        ignore (IMcmf.min_cost_max_flow g ~source ~sink);
        List.filter_map
          (fun (ji, t, mi, e) ->
            let w = float_of_int (IMcmf.flow_on g e) *. cap_unit in
            if w > 1e-12 then
              Some (fn.fjid.(ji), t, fn.fmid.(mi), Q.of_float w)
            else None)
          !job_edges
      end
    in
    (* Float flows can fall short of the demand by rounding residue; snap
       each job's chunks so they sum to exactly its remaining work (the
       ~1e-9 relative capacity overrun is absorbed downstream). *)
    let work =
      let jid_to_rem = Hashtbl.create 16 in
      Array.iteri (fun ji rem -> Hashtbl.replace jid_to_rem fn.fjid.(ji) rem) fn.frem;
      let delivered = Hashtbl.create 16 in
      List.iter
        (fun (jid, _, _, w) ->
          Hashtbl.replace delivered jid
            (Q.add w (Option.value ~default:Q.zero (Hashtbl.find_opt delivered jid))))
        work;
      List.map
        (fun (jid, t, mid, w) ->
          let rem = Q.of_float (Hashtbl.find jid_to_rem jid) in
          let got = Hashtbl.find delivered jid in
          if Q.sign got > 0 && not (Q.equal got rem) then
            (jid, t, mid, Q.div (Q.mul w rem) got)
          else (jid, t, mid, w))
        work
    in
    fpoints ws fn ~f:s_star;
    let intervals =
      Array.init
        (max 0 (ws.npts - 1))
        (fun t -> { lo = Q.of_float ws.pts.(t); hi = Q.of_float ws.pts.(t + 1) })
    in
    { s_star = Q.of_float s_star; intervals; work }
  end
