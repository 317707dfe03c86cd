(* Bigint: unit tests on edge cases plus qcheck properties cross-checked
   against native int arithmetic and against decimal string round-trips. *)

module B = Gripps_numeric.Bigint

let b = B.of_int
let check_b msg expected actual = Alcotest.(check string) msg expected (B.to_string actual)

let test_constants () =
  check_b "zero" "0" B.zero;
  check_b "one" "1" B.one;
  check_b "minus_one" "-1" B.minus_one;
  Alcotest.(check int) "sign zero" 0 (B.sign B.zero);
  Alcotest.(check int) "sign one" 1 (B.sign B.one);
  Alcotest.(check int) "sign minus_one" (-1) (B.sign B.minus_one)

let test_of_int_extremes () =
  Alcotest.(check int) "max_int round-trip" max_int (B.to_int (b max_int));
  Alcotest.(check int) "min_int round-trip" min_int (B.to_int (b min_int));
  check_b "max_int string" (string_of_int max_int) (b max_int);
  check_b "min_int string" (string_of_int min_int) (b min_int);
  Alcotest.(check bool) "min_int fits" true (B.fits_int (b min_int));
  Alcotest.(check bool) "min_int - 1 does not fit" false
    (B.fits_int (B.pred (b min_int)))

let test_string_roundtrip () =
  let cases =
    [ "0"; "1"; "-1"; "999999999"; "1000000000"; "123456789012345678901234567890";
      "-98765432109876543210987654321"; "1073741824"; "1152921504606846976" ]
  in
  List.iter (fun s -> check_b s s (B.of_string s)) cases;
  check_b "leading plus" "42" (B.of_string "+42")

let test_string_invalid () =
  let bad s = Alcotest.check_raises s (Invalid_argument "Bigint.of_string: malformed input")
      (fun () -> ignore (B.of_string s)) in
  bad "12a3"; bad "-"; bad "1 2";
  Alcotest.check_raises "empty" (Invalid_argument "Bigint.of_string: empty string")
    (fun () -> ignore (B.of_string ""))

let test_add_carry_chain () =
  (* 2^300 - 1 plus 1 carries across all limbs. *)
  let big = B.pred (B.shift_left B.one 300) in
  check_b "carry chain" (B.to_string (B.shift_left B.one 300)) (B.succ big)

let test_divmod_basic () =
  let q, r = B.divmod (b 17) (b 5) in
  check_b "17/5 q" "3" q;
  check_b "17/5 r" "2" r;
  let q, r = B.divmod (b (-17)) (b 5) in
  check_b "-17/5 q" "-3" q;
  check_b "-17/5 r" "-2" r;
  let q, r = B.divmod (b 17) (b (-5)) in
  check_b "17/-5 q" "-3" q;
  check_b "17/-5 r" "2" r;
  let q, r = B.divmod (b (-17)) (b (-5)) in
  check_b "-17/-5 q" "3" q;
  check_b "-17/-5 r" "-2" r;
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let test_ediv_rem () =
  let q, r = B.ediv_rem (b (-17)) (b 5) in
  check_b "ediv q" "-4" q;
  check_b "ediv r" "3" r;
  let q, r = B.ediv_rem (b (-17)) (b (-5)) in
  check_b "ediv neg divisor q" "4" q;
  check_b "ediv neg divisor r" "3" r

let test_divmod_knuth_addback () =
  (* A case exercising the multi-limb path with a large quotient digit. *)
  let u = B.of_string "340282366920938463463374607431768211456" (* 2^128 *) in
  let v = B.of_string "18446744073709551617" (* 2^64 + 1 *) in
  let q, r = B.divmod u v in
  check_b "knuth q" "18446744073709551615" q (* 2^64 - 1 *);
  check_b "knuth r" "1" r;
  (* Check u = q*v + r. *)
  Alcotest.(check bool) "reconstruct" true B.(equal u (add (mul q v) r))

let test_shift () =
  check_b "1 << 100" (B.to_string (B.pow B.two 100)) (B.shift_left B.one 100);
  check_b "(1<<100) >> 37" (B.to_string (B.pow B.two 63)) (B.shift_right (B.shift_left B.one 100) 37);
  check_b "5 >> 10" "0" (B.shift_right (b 5) 10);
  check_b "-8 >> 1" "-4" (B.shift_right (b (-8)) 1)

let test_pow () =
  check_b "10^30" "1000000000000000000000000000000" (B.pow (b 10) 30);
  check_b "x^0" "1" (B.pow (b 12345) 0);
  Alcotest.check_raises "neg exponent" (Invalid_argument "Bigint.pow: negative exponent")
    (fun () -> ignore (B.pow B.two (-1)))

let test_gcd () =
  check_b "gcd 12 18" "6" (B.gcd (b 12) (b 18));
  check_b "gcd -12 18" "6" (B.gcd (b (-12)) (b 18));
  check_b "gcd 0 5" "5" (B.gcd B.zero (b 5));
  check_b "gcd 0 0" "0" (B.gcd B.zero B.zero);
  let a = B.mul (B.of_string "123456789123456789") (b 7919) in
  let c = B.mul (B.of_string "123456789123456789") (b 104729) in
  check_b "gcd large" "123456789123456789" (B.gcd a c)

let test_numbits () =
  Alcotest.(check int) "numbits 0" 0 (B.numbits B.zero);
  Alcotest.(check int) "numbits 1" 1 (B.numbits B.one);
  Alcotest.(check int) "numbits 2^100" 101 (B.numbits (B.pow B.two 100));
  Alcotest.(check int) "numbits 2^100-1" 100 (B.numbits (B.pred (B.pow B.two 100)))

let test_to_float () =
  Alcotest.(check (float 0.0)) "to_float small" 12345.0 (B.to_float (b 12345));
  Alcotest.(check (float 1e-9)) "to_float 2^80 relative" 1.0
    (B.to_float (B.pow B.two 80) /. 1.2089258196146292e24);
  Alcotest.(check (float 0.0)) "to_float neg" (-42.0) (B.to_float (b (-42)));
  (* Truncate to 62 bits, then round: 2^62 + 2^9 + 1 loses its last bit
     and then ties to even, while the nearest double is 2^62 + 2^10.  Do
     not "fix" this: Rat.to_float goes through it for every large value,
     and a correctly rounded conversion would move the bits of every
     float the solvers derive from such values. *)
  Alcotest.(check int64) "to_float truncates before rounding"
    (Int64.bits_of_float 0x1p62)
    (Int64.bits_of_float (B.to_float (B.add (B.shift_left B.one 62) (b 513))))

(* qcheck properties: small ints behave exactly like native ints. *)
let small_int = QCheck2.Gen.int_range (-1_000_000_000) 1_000_000_000

let prop_ring_matches_native =
  QCheck2.Test.make ~name:"bigint matches native int ring ops" ~count:500
    QCheck2.Gen.(triple small_int small_int small_int)
    (fun (x, y, z) ->
      let open B in
      to_int (add (b x) (b y)) = x + y
      && to_int (sub (b x) (b y)) = x - y
      && to_int (mul (b x) (b y)) = x * y
      && to_int (add (mul (b x) (b y)) (b z)) = (x * y) + z)

let prop_divmod_matches_native =
  QCheck2.Test.make ~name:"bigint divmod matches native" ~count:500
    QCheck2.Gen.(pair small_int small_int)
    (fun (x, y) ->
      QCheck2.assume (y <> 0);
      let q, r = B.divmod (b x) (b y) in
      B.to_int q = x / y && B.to_int r = x mod y)

(* Large-number properties via random decimal strings. *)
let digits_gen =
  QCheck2.Gen.(
    let* sign = oneofl [ ""; "-" ] in
    let* first = int_range 1 9 in
    let* rest = list_size (int_range 0 60) (int_range 0 9) in
    let body = String.concat "" (List.map string_of_int (first :: rest)) in
    return (sign ^ body))

let prop_string_roundtrip =
  QCheck2.Test.make ~name:"decimal string round-trip" ~count:300 digits_gen
    (fun s -> B.to_string (B.of_string s) = s)

let prop_divmod_reconstruct =
  QCheck2.Test.make ~name:"a = q*b + r with |r| < |b|" ~count:300
    QCheck2.Gen.(pair digits_gen digits_gen)
    (fun (sa, sb) ->
      let a = B.of_string sa and bb = B.of_string sb in
      QCheck2.assume (not (B.is_zero bb));
      let q, r = B.divmod a bb in
      B.equal a (B.add (B.mul q bb) r)
      && B.compare (B.abs r) (B.abs bb) < 0
      && (B.is_zero r || B.sign r = B.sign a))

let prop_gcd_divides =
  QCheck2.Test.make ~name:"gcd divides both arguments" ~count:200
    QCheck2.Gen.(pair digits_gen digits_gen)
    (fun (sa, sb) ->
      let a = B.of_string sa and bb = B.of_string sb in
      let g = B.gcd a bb in
      (not (B.is_zero g))
      && B.is_zero (B.rem a g)
      && B.is_zero (B.rem bb g))

(* The gcd oracle: a binary (Stein) gcd built only on [sub], [shift_right],
   [compare] and [numbits].  It shares no code with [B.gcd]'s Lehmer
   rounds or with [B.div], so a defect in either cannot hide by being
   repeated in the reference. *)
let ref_gcd a c =
  let is_zero x = B.numbits x = 0 in
  let abs x = if B.compare x B.zero < 0 then B.sub B.zero x else x in
  let half x = B.shift_right x 1 in
  let even x = (not (is_zero x)) && is_zero (B.sub (B.sub x (half x)) (half x)) in
  let rec odd x = if even x then odd (half x) else x in
  let rec common_twos a c k =
    if even a && even c then common_twos (half a) (half c) (k + 1) else (a, c, k)
  in
  let rec double x k = if k = 0 then x else double (B.sub x (B.sub B.zero x)) (k - 1) in
  (* a odd, c > 0: gcd (a, c) = gcd (a, odd c), then subtract the smaller *)
  let rec stein a c =
    let c = odd c in
    let a, c = if B.compare a c > 0 then (c, a) else (a, c) in
    let c = B.sub c a in
    if is_zero c then a else stein a c
  in
  let a = abs a and c = abs c in
  if is_zero a then c
  else if is_zero c then a
  else begin
    let a, c, k = common_twos a c 0 in
    double (stein (odd a) c) k
  end

let limb = QCheck2.Gen.int_range 0 ((1 lsl 30) - 1)

(* A value of [lo] to [hi] limbs with a non-zero top limb. *)
let limbs_gen lo hi =
  QCheck2.Gen.(
    let* top = int_range 1 ((1 lsl 30) - 1) in
    let* ls = list_size (int_range (lo - 1) (hi - 1)) limb in
    return (List.fold_left (fun acc l -> B.add (B.shift_left acc 30) (b l)) (b top) ls))

(* An odd value of [lo] to [hi] limbs. *)
let odd_gen lo hi =
  QCheck2.Gen.map (fun x -> if B.is_zero (B.sub x (B.shift_left (B.shift_right x 1) 1))
                    then B.add x B.one else x) (limbs_gen lo hi)

let signed g = QCheck2.Gen.(map2 (fun neg x -> if neg then B.neg x else x) bool g)

(* Check [g = gcd x y]: both argument orders, the oracle, and cofactors
   that rebuild the operands and are coprime. *)
let gcd_agrees x y =
  let g = B.gcd x y in
  B.equal g (ref_gcd x y)
  && B.equal g (B.gcd y x)
  && (B.is_zero g
      || (let cx = B.div x g and cy = B.div y g in
          B.equal (B.mul cx g) x && B.equal (B.mul cy g) y && B.equal (ref_gcd cx cy) B.one))

let print_pair (x, y) = B.to_string x ^ ", " ^ B.to_string y

(* x*2^i and y*2^j sharing long runs of factors of two, across limb
   boundaries: decimal strings almost never do, so [prop_gcd_divides]
   cannot see how the common power of two is put back. *)
let shifted_gen =
  QCheck2.Gen.(
    (* zero, small values (odd part often 1), or one to seven limbs *)
    let* x =
      frequency
        [ (1, return B.zero);
          (2, map b (int_range 1 16));
          (5, limbs_gen 1 7) ]
    in
    let* i = int_range 0 200 in
    let* neg = bool in
    let x = B.shift_left x i in
    return (if neg then B.neg x else x))

let prop_gcd_matches_reference =
  QCheck2.Test.make ~name:"gcd equals a reference binary gcd" ~count:500 ~print:print_pair
    QCheck2.Gen.(pair shifted_gen shifted_gen)
    (fun (x, y) -> gcd_agrees x y)

(* Operands of up to 16 limbs that share a planted odd factor of 1-4
   limbs and up to 200 factors of two.  Random operands are almost
   always coprime or share a small factor; here the gcd is often wider
   than 62 bits, so Lehmer's rounds must carry it to the end. *)
let planted_gen =
  QCheck2.Gen.(
    let* g = odd_gen 1 4 in
    let cofactor =
      frequency [ (1, return B.zero); (1, map b (int_range 1 1000)); (6, limbs_gen 1 12) ]
    in
    let* x = cofactor and* y = cofactor in
    let* i = int_range 0 200 and* j = int_range 0 200 in
    let* nx = bool and* ny = bool in
    let op c k neg = let v = B.shift_left (B.mul c g) k in if neg then B.neg v else v in
    return (op x i nx, op y j ny))

let prop_gcd_planted =
  QCheck2.Test.make ~name:"gcd finds a planted common factor" ~count:150 ~print:print_pair
    planted_gen
    (fun (x, y) -> gcd_agrees x y)

(* (q*y + r, y) with q >= 2^61: the leading 61 bits of the first operand
   see the second as zero, so Lehmer's round can take no quotient and
   must fall back to one true division.  y and r share a planted factor,
   and r has fewer bits than y, so r < y without a division. *)
let fallback_gen =
  QCheck2.Gen.(
    let* g = odd_gen 1 2 in
    let* y = limbs_gen 1 5 in
    let* r = frequency [ (1, return B.zero); (4, limbs_gen 1 1); (4, limbs_gen 1 4) ] in
    let r = if B.numbits r >= B.numbits y then B.shift_right r (B.numbits r - B.numbits y + 1) else r in
    let* q_extra = limbs_gen 1 3 in
    let* k = int_range 61 120 in
    let q = B.add (B.shift_left B.one k) q_extra in
    let y = B.mul y g and r = B.mul r g in
    let* neg = bool in
    let x = B.add (B.mul q y) r in
    return ((if neg then B.neg x else x), y))

let prop_gcd_fallback =
  QCheck2.Test.make ~name:"gcd through Lehmer's division fallback" ~count:150 ~print:print_pair
    fallback_gen
    (fun (x, y) -> gcd_agrees x y)

(* Divisors of every class [B.div] serves on its own: ±1, ±2^k, one limb,
   several limbs, and several limbs whose top limb alone is a power of
   two. *)
let divisor_gen =
  QCheck2.Gen.(
    signed
      (frequency
         [ (1, return B.one);
           (2, map (B.shift_left B.one) (int_range 1 300));
           (2, map b (int_range 2 ((1 lsl 30) - 1)));
           (3, limbs_gen 2 6);
           (1, map2 (fun k l -> B.add (B.shift_left B.one k) (b l)) (int_range 31 200)
                 (int_range 1 1000)) ]))

let dividend_gen =
  QCheck2.Gen.(signed (frequency [ (1, return B.zero); (1, map b (int_range 1 1000)); (6, limbs_gen 1 10) ]))

let prop_div_exact =
  QCheck2.Test.make ~name:"exact division by ±1, ±2^k, one and several limbs" ~count:400
    ~print:print_pair QCheck2.Gen.(pair dividend_gen divisor_gen)
    (fun (x, g) -> B.equal (B.div (B.mul x g) g) x)

let prop_div_is_divmod_quotient =
  QCheck2.Test.make ~name:"div equals divmod's quotient" ~count:400 ~print:print_pair
    QCheck2.Gen.(pair dividend_gen divisor_gen)
    (fun (x, y) -> B.equal (B.div x y) (fst (B.divmod x y)))

let prop_mul_commutative_assoc =
  QCheck2.Test.make ~name:"mul commutative and associative (large)" ~count:200
    QCheck2.Gen.(triple digits_gen digits_gen digits_gen)
    (fun (sa, sb, sc) ->
      let a = B.of_string sa and bb = B.of_string sb and c = B.of_string sc in
      B.equal (B.mul a bb) (B.mul bb a)
      && B.equal (B.mul (B.mul a bb) c) (B.mul a (B.mul bb c)))

let prop_shift_is_pow2 =
  QCheck2.Test.make ~name:"shift_left = multiply by 2^n" ~count:200
    QCheck2.Gen.(pair digits_gen (int_range 0 120))
    (fun (sa, n) ->
      let a = B.of_string sa in
      B.equal (B.shift_left a n) (B.mul a (B.pow B.two n)))

let prop_shift_right_truncates =
  QCheck2.Test.make ~name:"shift_right = truncated division by 2^n" ~count:200
    QCheck2.Gen.(pair digits_gen (int_range 0 240))
    (fun (sa, n) ->
      let a = B.of_string sa in
      B.equal (B.shift_right a n) (fst (B.divmod a (B.pow B.two n))))

let prop_compare_total_order =
  QCheck2.Test.make ~name:"compare consistent with sub sign" ~count:300
    QCheck2.Gen.(pair digits_gen digits_gen)
    (fun (sa, sb) ->
      let a = B.of_string sa and bb = B.of_string sb in
      let c = B.compare a bb in
      let s = B.sign (B.sub a bb) in
      (c > 0 && s > 0) || (c < 0 && s < 0) || (c = 0 && s = 0))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_ring_matches_native; prop_divmod_matches_native; prop_string_roundtrip;
      prop_divmod_reconstruct; prop_gcd_divides; prop_mul_commutative_assoc;
      prop_shift_is_pow2; prop_shift_right_truncates; prop_compare_total_order;
      prop_gcd_matches_reference;
      prop_gcd_planted; prop_gcd_fallback; prop_div_exact; prop_div_is_divmod_quotient ]

let suite =
  ( "bigint",
    [ Alcotest.test_case "constants" `Quick test_constants;
      Alcotest.test_case "of_int extremes" `Quick test_of_int_extremes;
      Alcotest.test_case "string round-trip" `Quick test_string_roundtrip;
      Alcotest.test_case "string invalid" `Quick test_string_invalid;
      Alcotest.test_case "add carry chain" `Quick test_add_carry_chain;
      Alcotest.test_case "divmod basic signs" `Quick test_divmod_basic;
      Alcotest.test_case "euclidean divmod" `Quick test_ediv_rem;
      Alcotest.test_case "knuth division multi-limb" `Quick test_divmod_knuth_addback;
      Alcotest.test_case "shifts" `Quick test_shift;
      Alcotest.test_case "pow" `Quick test_pow;
      Alcotest.test_case "gcd" `Quick test_gcd;
      Alcotest.test_case "numbits" `Quick test_numbits;
      Alcotest.test_case "to_float" `Quick test_to_float ]
    @ qcheck_cases )
