(* Rat: field axioms, exact float conversion, ordering. *)

module B = Gripps_numeric.Bigint
module Q = Gripps_numeric.Rat

let q = Q.of_ints
let check_q msg expected actual = Alcotest.(check string) msg expected (Q.to_string actual)

let test_normalization () =
  check_q "6/4 = 3/2" "3/2" (q 6 4);
  check_q "-6/4" "-3/2" (q (-6) 4);
  check_q "6/-4" "-3/2" (q 6 (-4));
  check_q "-6/-4" "3/2" (q (-6) (-4));
  check_q "0/7" "0" (q 0 7);
  check_q "int form" "5" (q 5 1);
  Alcotest.check_raises "zero denominator" Division_by_zero (fun () -> ignore (q 1 0))

let test_arith () =
  check_q "1/2 + 1/3" "5/6" (Q.add (q 1 2) (q 1 3));
  check_q "1/2 - 1/3" "1/6" (Q.sub (q 1 2) (q 1 3));
  check_q "2/3 * 9/4" "3/2" (Q.mul (q 2 3) (q 9 4));
  check_q "1/2 / 1/3" "3/2" (Q.div (q 1 2) (q 1 3));
  check_q "inv -2/5" "-5/2" (Q.inv (q (-2) 5));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () -> ignore (Q.inv Q.zero));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () -> ignore (Q.div Q.one Q.zero))

let test_compare () =
  Alcotest.(check bool) "1/3 < 1/2" true (Q.lt (q 1 3) (q 1 2));
  Alcotest.(check bool) "-1/2 < 1/3" true (Q.lt (q (-1) 2) (q 1 3));
  Alcotest.(check bool) "equal cross forms" true (Q.equal (q 2 4) (q 1 2));
  Alcotest.(check int) "sign neg" (-1) (Q.sign (q (-3) 7));
  check_q "min" "1/3" (Q.min_rat (q 1 2) (q 1 3));
  check_q "max" "1/2" (Q.max_rat (q 1 2) (q 1 3))

let test_floor_ceil () =
  Alcotest.(check string) "floor 7/2" "3" (B.to_string (Q.floor (q 7 2)));
  Alcotest.(check string) "ceil 7/2" "4" (B.to_string (Q.ceil (q 7 2)));
  Alcotest.(check string) "floor -7/2" "-4" (B.to_string (Q.floor (q (-7) 2)));
  Alcotest.(check string) "ceil -7/2" "-3" (B.to_string (Q.ceil (q (-7) 2)));
  Alcotest.(check string) "floor 4" "4" (B.to_string (Q.floor (q 4 1)))

let test_of_float_exact () =
  check_q "0.5" "1/2" (Q.of_float 0.5);
  check_q "0.25" "1/4" (Q.of_float 0.25);
  check_q "3.0" "3" (Q.of_float 3.0);
  check_q "-1.5" "-3/2" (Q.of_float (-1.5));
  check_q "0.0" "0" (Q.of_float 0.0);
  (* 0.1 is NOT 1/10 in binary; conversion must be exact, not pretty. *)
  check_q "0.1 exact" "3602879701896397/36028797018963968" (Q.of_float 0.1);
  Alcotest.check_raises "nan" (Invalid_argument "Rat.of_float: nan") (fun () ->
      ignore (Q.of_float nan))

let test_of_string () =
  check_q "frac" "3/2" (Q.of_string "3/2");
  check_q "frac unnormalized" "3/2" (Q.of_string "6/4");
  check_q "int" "-7" (Q.of_string "-7");
  check_q "decimal" "5/4" (Q.of_string "1.25");
  check_q "neg decimal" "-3/2" (Q.of_string "-1.5")

let float_gen = QCheck2.Gen.float_range (-1e6) 1e6

(* The whole finite range: uniform bit patterns (mostly very large or
   very small magnitudes), subnormals, the extremes and +-1e+-300, beside
   the everyday [-1e6, 1e6].  Values past about 2^970 either way have a
   component of more than 1024 bits. *)
let finite_float_gen =
  QCheck2.Gen.(
    let finite f = if Float.is_finite f then f else Float.copy_sign max_float f in
    let subnormal =
      let* m = int_range 1 ((1 lsl 52) - 1) in
      let* neg = bool in
      let f = Int64.float_of_bits (Int64.of_int m) in
      return (if neg then -.f else f)
    in
    frequency
      [ (2, float_gen);
        (3, map (fun b -> finite (Int64.float_of_bits b)) int64);
        (2, subnormal);
        (1, oneofl
              [ 4.9e-324; -4.9e-324; 1e-310; 2.2250738585072009e-308; min_float;
                1e-300; -1e-300; 1e300; -1e300; max_float; -.max_float ]) ])

let prop_of_float_roundtrip =
  QCheck2.Test.make ~name:"of_float/to_float exact round-trip" ~count:1000
    ~print:(Printf.sprintf "%h") finite_float_gen
    (fun f -> Int64.equal (Int64.bits_of_float (Q.to_float (Q.of_float f))) (Int64.bits_of_float f))

let rat_gen =
  QCheck2.Gen.(
    let* n = int_range (-10_000) 10_000 in
    let* d = int_range 1 10_000 in
    return (q n d))

let prop_field_axioms =
  QCheck2.Test.make ~name:"field axioms" ~count:300
    QCheck2.Gen.(triple rat_gen rat_gen rat_gen)
    (fun (a, b, c) ->
      Q.equal (Q.add a b) (Q.add b a)
      && Q.equal (Q.add (Q.add a b) c) (Q.add a (Q.add b c))
      && Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c))
      && Q.equal (Q.add a (Q.neg a)) Q.zero
      && (Q.is_zero a || Q.equal (Q.mul a (Q.inv a)) Q.one))

let prop_compare_antisymmetric =
  QCheck2.Test.make ~name:"ordering consistent with arithmetic" ~count:300
    QCheck2.Gen.(triple rat_gen rat_gen rat_gen)
    (fun (a, b, c) ->
      Q.compare a b = -Q.compare b a
      && (Q.compare a b <> Q.compare b c || Q.compare a c = Q.compare a b
          || Q.compare a b = 0)
      && Q.compare (Q.add a c) (Q.add b c) = Q.compare a b)

let prop_exact_sum_of_floats =
  QCheck2.Test.make ~name:"rational sums of floats are exact" ~count:200
    QCheck2.Gen.(list_size (int_range 1 20) float_gen)
    (fun fs ->
      (* Summing forward and backward gives the same exact rational, while
         float sums would differ; this is the property the offline solver
         relies on. *)
      let sum l = List.fold_left (fun acc f -> Q.add acc (Q.of_float f)) Q.zero l in
      Q.equal (sum fs) (sum (List.rev fs)))

(* ---- fast path vs Bigint reference ------------------------------------

   Rat serves small values with overflow-checked native arithmetic and
   falls back to Bigint.  These properties recompute every operation
   through Q.make on raw Bigint products — a route that never uses the
   checked fast path — on operands drawn around the overflow boundaries
   (2^31, max_int/2, max_int), so both the hit and the fall branches are
   exercised and must agree. *)

let boundary_int_gen =
  QCheck2.Gen.(
    let* base =
      oneof
        [ int_range (-1000) 1000;
          map (fun k -> (1 lsl 31) + k) (int_range (-3) 3);
          map (fun k -> (max_int / 2) + k) (int_range (-3) 3);
          map (fun k -> max_int - k) (int_range 0 3) ]
    in
    let* neg = bool in
    return (if neg then -base else base))

let boundary_rat_gen =
  QCheck2.Gen.(
    let* n = boundary_int_gen in
    let* d = boundary_int_gen in
    return (q n (if d = 0 then 1 else d)))

let ref_add a b =
  Q.make
    (B.add (B.mul (Q.num a) (Q.den b)) (B.mul (Q.num b) (Q.den a)))
    (B.mul (Q.den a) (Q.den b))

let ref_mul a b = Q.make (B.mul (Q.num a) (Q.num b)) (B.mul (Q.den a) (Q.den b))

let prop_fast_path_matches_reference =
  QCheck2.Test.make ~name:"fast path agrees with Bigint reference" ~count:1000
    QCheck2.Gen.(pair boundary_rat_gen boundary_rat_gen)
    (fun (a, b) ->
      Q.equal (Q.add a b) (ref_add a b)
      && Q.equal (Q.sub a b) (ref_add a (Q.neg b))
      && Q.equal (Q.mul a b) (ref_mul a b)
      && (Q.is_zero b || Q.equal (Q.div a b) (ref_mul a (Q.inv b)))
      && Q.compare a b
         = B.compare (B.mul (Q.num a) (Q.den b)) (B.mul (Q.num b) (Q.den a)))

let prop_fast_path_string_identical =
  QCheck2.Test.make
    ~name:"fast and fallback results render identically (canonical form)"
    ~count:500
    QCheck2.Gen.(pair boundary_rat_gen boundary_rat_gen)
    (fun (a, b) ->
      String.equal (Q.to_string (Q.add a b)) (Q.to_string (ref_add a b))
      && String.equal (Q.to_string (Q.mul a b)) (Q.to_string (ref_mul a b)))

let test_fast_path_counters () =
  Q.reset_stats ();
  ignore (Q.add (q 1 2) (q 1 3));
  let s = Q.stats () in
  Alcotest.(check bool) "small add hits" true (s.Q.fast_hits > 0);
  Alcotest.(check int) "small add does not fall" 0 s.Q.fast_falls;
  Q.reset_stats ();
  (* (max_int-1)/1 + (max_int-1)/1 overflows the native numerator. *)
  let big = q (max_int - 1) 1 in
  let sum = Q.add big big in
  let s = Q.stats () in
  Alcotest.(check bool) "overflow falls back" true (s.Q.fast_falls > 0);
  Alcotest.(check bool) "fallback result exact" true
    (Q.equal sum (Q.make (B.mul (B.of_int 2) (B.of_int (max_int - 1))) (B.of_int 1)));
  Q.reset_stats ()

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_of_float_roundtrip; prop_field_axioms; prop_compare_antisymmetric;
      prop_exact_sum_of_floats; prop_fast_path_matches_reference;
      prop_fast_path_string_identical ]

let suite =
  ( "rat",
    [ Alcotest.test_case "normalization" `Quick test_normalization;
      Alcotest.test_case "arithmetic" `Quick test_arith;
      Alcotest.test_case "comparison" `Quick test_compare;
      Alcotest.test_case "floor/ceil" `Quick test_floor_ceil;
      Alcotest.test_case "of_float exactness" `Quick test_of_float_exact;
      Alcotest.test_case "of_string" `Quick test_of_string;
      Alcotest.test_case "fast-path counters" `Quick test_fast_path_counters ]
    @ qcheck_cases )
