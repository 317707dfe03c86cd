let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Percentiles in basis points, so ranks are exact integer arithmetic:
   0.99 *. 1000. is not 990 in floating point. *)
let ladder = [ 5000; 9000; 9900; 9990; 9999 ]

(* Nearest rank: the smallest sample with at least [bp]/100 % of the
   samples at or below it.  Returns the value and how many samples lie
   strictly beyond that rank. *)
let percentile sorted bp =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = max 1 (((bp * n) + 9999) / 10000) in
  (sorted.(rank - 1), n - rank)

type tail = { bp : int; value : float; beyond : int; samples : int }

(* The highest percentile of the ladder with at least 10 samples
   strictly beyond it, so a reported tail rests on more than one or two
   outliers; [None] below 20 samples. *)
let tail xs =
  let a = sorted xs in
  List.fold_left
    (fun acc bp ->
      let value, beyond = percentile a bp in
      if beyond >= 10 then Some { bp; value; beyond; samples = Array.length a } else acc)
    None ladder
