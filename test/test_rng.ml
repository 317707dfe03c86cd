module Splitmix = Gripps_rng.Splitmix
module Dist = Gripps_rng.Dist

let test_determinism () =
  let a = Splitmix.create 42 and b = Splitmix.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Splitmix.next_int64 a) (Splitmix.next_int64 b)
  done

let test_copy_independent () =
  let a = Splitmix.create 7 in
  ignore (Splitmix.next_int64 a);
  let c = Splitmix.copy a in
  Alcotest.(check int64) "copy continues identically"
    (Splitmix.next_int64 a) (Splitmix.next_int64 c)

let test_split_differs () =
  let a = Splitmix.create 7 in
  let child = Splitmix.split a in
  let xs = List.init 10 (fun _ -> Splitmix.next_int64 a) in
  let ys = List.init 10 (fun _ -> Splitmix.next_int64 child) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_stream_pure () =
  let a = Splitmix.create 9 in
  let witness = Splitmix.copy a in
  let s1 = Splitmix.stream a 5 and s2 = Splitmix.stream a 5 in
  for _ = 1 to 10 do
    Alcotest.(check int64) "stream is a pure function of (state, k)"
      (Splitmix.next_int64 s1) (Splitmix.next_int64 s2)
  done;
  Alcotest.(check int64) "deriving streams does not advance the parent"
    (Splitmix.next_int64 witness) (Splitmix.next_int64 a)

(* The seed discipline of parallel sweeps: streams derived by index must
   be mutually independent and independent of the base's own output
   sequence, or shards would correlate. *)
let prop_stream_independence =
  QCheck2.Test.make ~name:"indexed streams are pairwise distinct" ~count:200
    QCheck2.Gen.(triple (int_range 0 1_000_000) (int_range 0 4096) (int_range 0 4096))
    (fun (seed, j, k) ->
      let base = Splitmix.create seed in
      let take8 rng = List.init 8 (fun _ -> Splitmix.next_int64 rng) in
      let draw i = take8 (Splitmix.stream base i) in
      let base_draws = take8 (Splitmix.copy base) in
      (j = k || draw j <> draw k) && draw j <> base_draws)

let test_float_range () =
  let rng = Splitmix.create 1 in
  for _ = 1 to 1000 do
    let f = Splitmix.float rng in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_int_bounds () =
  let rng = Splitmix.create 2 in
  for _ = 1 to 1000 do
    let v = Splitmix.int rng 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Splitmix.int: non-positive bound")
    (fun () -> ignore (Splitmix.int rng 0))

let test_uniform_moments () =
  let rng = Splitmix.create 3 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do sum := !sum +. Dist.uniform rng ~lo:2.0 ~hi:4.0 done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 3" true (abs_float (mean -. 3.0) < 0.02)

let test_exponential_mean () =
  let rng = Splitmix.create 4 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do sum := !sum +. Dist.exponential rng ~rate:2.0 done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 1/2" true (abs_float (mean -. 0.5) < 0.01)

(* A NaN or infinite rate draws NaN or 0, and a Poisson loop over such
   gaps never reaches its horizon. *)
let test_exponential_rejects_bad_rates () =
  let rng = Splitmix.create 4 in
  List.iter
    (fun rate ->
      match Dist.exponential rng ~rate with
      | _ -> Alcotest.failf "rate %h accepted" rate
      | exception Invalid_argument _ -> ())
    [ nan; infinity; 0.0; -1.0 ]

let test_poisson_process () =
  let rng = Splitmix.create 5 in
  let arrivals = Dist.poisson_process rng ~rate:10.0 ~horizon:100.0 in
  let sorted = List.sort Float.compare arrivals in
  Alcotest.(check bool) "sorted" true (arrivals = sorted);
  List.iter (fun t -> Alcotest.(check bool) "in horizon" true (t >= 0.0 && t < 100.0)) arrivals;
  let n = List.length arrivals in
  (* Expect ~1000 arrivals; 4 sigma ≈ 126. *)
  Alcotest.(check bool) "count near rate*horizon" true (n > 850 && n < 1150)

let test_pick_and_shuffle () =
  let rng = Splitmix.create 6 in
  let a = [| 1; 2; 3 |] in
  for _ = 1 to 100 do
    let v = Dist.pick rng a in
    Alcotest.(check bool) "picked member" true (Array.exists (( = ) v) a)
  done;
  let arr = Array.init 50 Fun.id in
  Dist.shuffle rng arr;
  Alcotest.(check (list int)) "shuffle is a permutation"
    (List.init 50 Fun.id)
    (List.sort Int.compare (Array.to_list arr))

let suite =
  ( "rng",
    [ Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "copy" `Quick test_copy_independent;
      Alcotest.test_case "split" `Quick test_split_differs;
      Alcotest.test_case "stream purity" `Quick test_stream_pure;
      QCheck_alcotest.to_alcotest prop_stream_independence;
      Alcotest.test_case "float range" `Quick test_float_range;
      Alcotest.test_case "int bounds" `Quick test_int_bounds;
      Alcotest.test_case "uniform moments" `Quick test_uniform_moments;
      Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
      Alcotest.test_case "exponential rejects bad rates" `Quick
        test_exponential_rejects_bad_rates;
      Alcotest.test_case "poisson process" `Quick test_poisson_process;
      Alcotest.test_case "pick and shuffle" `Quick test_pick_and_shuffle ] )
