open Gripps_model

type loss = Crash | Pause

type edge = { time : float; machine : int; up : bool }

type trace = edge list

let compare_edge a b =
  match Float.compare a.time b.time with
  | 0 ->
    (* A repair sorts before a failure at the same date so a
       down-at-the-same-instant machine ends the instant down — the
       conservative reading. *)
    (match Int.compare a.machine b.machine with
     | 0 -> Bool.compare b.up a.up
     | c -> c)
  | c -> c

let normalize trace =
  List.iter
    (fun e ->
      if Float.is_nan e.time then invalid_arg "Fault.normalize: NaN date";
      if e.machine < 0 then invalid_arg "Fault.normalize: negative machine id")
    trace;
  List.stable_sort compare_edge trace

let merge a b = normalize (a @ b)

let of_platform platform =
  Array.to_list (Platform.machines platform)
  |> List.concat_map (fun (m : Machine.t) ->
         List.concat_map
           (fun (s, e) ->
             [ { time = s; machine = m.Machine.id; up = false };
               { time = e; machine = m.Machine.id; up = true } ])
           m.Machine.downtime)
  |> normalize

(* The most failures a trace may expect, [machines * until / mtbf].  A
   failure holds 144 bytes once drawn (two edges of 9 words), and the
   draw and the sort grow the heap by about 390 bytes a failure
   (measured at 9 x 10^5 failures), so the cap bounds a trace at about
   4 GB.  The traces the tests and benchmarks draw expect fewer than
   1,000. *)
let max_expected_failures = 1e7

(* Per-machine alternating renewal process: exponential up-times of mean
   [mtbf], exponential repair times of mean [mttr].  Failures are only
   drawn before [until], but every failure gets its repair even when the
   repair date falls past [until] — a trace never strands a machine down
   forever, so a simulation draining work after the arrival window cannot
   deadlock waiting for a repair that was clipped away. *)
let poisson rng ~mtbf ~mttr ~machines ~until =
  (* Written as negations so NaN fails them too; an infinite window
     would draw failures forever. *)
  if not (mtbf > 0.0) then invalid_arg "Fault.poisson: non-positive mtbf";
  if not (mttr > 0.0) then invalid_arg "Fault.poisson: non-positive mttr";
  if not (until < infinity) then invalid_arg "Fault.poisson: until not finite";
  if machines <= 0 then invalid_arg "Fault.poisson: no machines";
  if not (float_of_int machines *. until /. mtbf <= max_expected_failures) then
    invalid_arg "Fault.poisson: too many expected failures";
  let events = ref [] in
  for m = 0 to machines - 1 do
    let t = ref (Gripps_rng.Dist.exponential rng ~rate:(1.0 /. mtbf)) in
    while !t < until do
      events := { time = !t; machine = m; up = false } :: !events;
      t := !t +. Gripps_rng.Dist.exponential rng ~rate:(1.0 /. mttr);
      events := { time = !t; machine = m; up = true } :: !events;
      t := !t +. Gripps_rng.Dist.exponential rng ~rate:(1.0 /. mtbf)
    done
  done;
  normalize !events

let pp fmt trace =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun e ->
      Format.fprintf fmt "%8.3f M%d %s@," e.time e.machine
        (if e.up then "up" else "DOWN"))
    trace;
  Format.fprintf fmt "@]"
