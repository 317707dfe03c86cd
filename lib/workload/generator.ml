open Gripps_model
module Splitmix = Gripps_rng.Splitmix
module Dist = Gripps_rng.Dist

type realized = { platform : Platform.t; db_sizes : float array }

let platform rng (c : Config.t) =
  let db_sizes =
    let lo, hi = c.db_size_range in
    Array.init c.databases (fun _ -> Dist.uniform rng ~lo ~hi)
  in
  let replicas =
    Array.init c.databases (fun _ ->
        Array.init c.sites (fun _ -> Dist.bernoulli rng ~p:c.availability))
  in
  (* A databank hosted nowhere could never be served: force one replica. *)
  Array.iter
    (fun row ->
      if not (Array.exists Fun.id row) then row.(Splitmix.int rng c.sites) <- true)
    replicas;
  let machines =
    List.init c.sites (fun site ->
        let per_cpu = Dist.pick rng c.reference_speeds in
        let speed = per_cpu *. float_of_int c.processors_per_site in
        let databanks = Array.init c.databases (fun d -> replicas.(d).(site)) in
        Machine.make ~id:site ~speed ~databanks)
  in
  { platform = Platform.make ~machines ~num_databanks:c.databases; db_sizes }

(* The most jobs a draw may expect, ten times the largest instance
   [gripps_cli scale] is run at (10^7).  A job holds 104 bytes once
   drawn (13 words of record, boxed floats and list cell), and the draw
   grows the heap by about 145 bytes a job (measured at 10^6 jobs), so
   the cap bounds a draw at about 15 GB. *)
let max_expected_jobs = 1e8

let jobs rng (c : Config.t) r =
  let total_speed = Platform.total_speed r.platform in
  let per_db_work = c.density *. total_speed *. c.horizon /. float_of_int c.databases in
  (* Each databank expects [per_db_work / size] arrivals.  Written as a
     negation so NaN is refused too; checked before any draw. *)
  let expected = Array.fold_left (fun acc z -> acc +. (per_db_work /. z)) 0.0 r.db_sizes in
  if not (expected <= max_expected_jobs) then
    invalid_arg "Generator.jobs: too many expected jobs";
  (* Each databank's Poisson arrivals, databanks in ascending order, go
     straight into one pair of growable columns: the gaps
     [Dist.poisson_process] draws, in its order (the draw order fixes
     every bit of the result), without a list cell or a boxed float per
     job.  The columns start small and are shared by all databanks: a
     Table 1 sweep draws thousands of instances of a job or two. *)
  let release = ref (Array.create_float 16) and databank = ref (Array.make 16 0) in
  let n = ref 0 in
  for d = 0 to c.databases - 1 do
    let rate = per_db_work /. (r.db_sizes.(d) *. c.horizon) in
    let t = ref 0.0 in
    t := !t +. Dist.exponential rng ~rate;
    while not (!t >= c.horizon) do
      if !n = Array.length !release then begin
        let grown = Array.create_float (2 * !n) and grown_db = Array.make (2 * !n) 0 in
        Array.blit !release 0 grown 0 !n;
        Array.blit !databank 0 grown_db 0 !n;
        release := grown;
        databank := grown_db
      end;
      !release.(!n) <- !t;
      !databank.(!n) <- d;
      incr n;
      t := !t +. Dist.exponential rng ~rate
    done
  done;
  let n = !n and release = !release and databank = !databank in
  (* User tags are drawn after every Poisson draw, one per job in
     databank order, so a single-user configuration (the default, and
     every historical one) consumes exactly the stream it did before the
     users axis existed — bit-identity preserved. *)
  let user = Array.make n 0 in
  if c.users > 1 then
    for i = 0 to n - 1 do
      user.(i) <- Splitmix.int rng c.users
    done;
  (* Stable by release date: ties keep draw order. *)
  let perm = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Float.compare release.(a) release.(b)) perm;
  let rec build i acc =
    if i < 0 then acc
    else begin
      let p = perm.(i) in
      let d = databank.(p) in
      let size = r.db_sizes.(d) in
      (* [Job.make]'s check: the release dates are non-negative by
         construction. *)
      if size <= 0.0 then invalid_arg "Job.make: non-positive size";
      build (i - 1)
        ({ Job.id = i; release = release.(p); size; databank = d; user = user.(p) }
         :: acc)
    end
  in
  build (n - 1) []

let rec instance rng c =
  let r = platform rng c in
  match jobs rng c r with
  | [] -> instance rng c
  | js -> Instance.make ~platform:r.platform ~jobs:js

let fault_trace rng (c : Config.t) ~machines =
  match c.faults with
  | None -> []
  | Some f ->
    Gripps_engine.Fault.poisson rng ~mtbf:f.Config.mtbf ~mttr:f.Config.mttr
      ~machines ~until:c.horizon
