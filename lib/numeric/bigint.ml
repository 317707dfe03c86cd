(* Sign-magnitude bignums in base 2^30.  Limbs are stored little-endian in
   an int array with no leading (most-significant) zero limb; zero is the
   unique value with an empty magnitude and sign 0.  All limb products fit
   in OCaml's 63-bit native ints: (2^30 - 1)^2 + 2*(2^30 - 1) < 2^61. *)

let base_bits = 30
let base = 1 lsl base_bits
let mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

(* Limbs 0 .. n-1 of [mag] without their most-significant zero limbs. *)
let rec top_len mag n = if n > 0 && mag.(n - 1) = 0 then top_len mag (n - 1) else n

(* Strip most-significant zero limbs; detect zero. *)
let normalize sign mag =
  let n = top_len mag (Array.length mag) in
  if n = 0 then zero
  else if n = Array.length mag then { sign; mag }
  else { sign; mag = Array.sub mag 0 n }

let of_small_pos n =
  (* n >= 0, native *)
  if n = 0 then zero
  else if n < base then { sign = 1; mag = [| n |] }
  else begin
    let rec count m acc = if m = 0 then acc else count (m lsr base_bits) (acc + 1) in
    let len = count n 0 in
    let mag = Array.make len 0 in
    let rec fill i m =
      if m <> 0 then begin
        mag.(i) <- m land mask;
        fill (i + 1) (m lsr base_bits)
      end
    in
    fill 0 n;
    { sign = 1; mag }
  end

let of_int n =
  if n = 0 then zero
  else if n > 0 then of_small_pos n
  else if n = min_int then
    (* -(min_int) overflows: build from min_int+1 and subtract one more. *)
    let m = of_small_pos max_int in
    let mag = Array.copy m.mag in
    (* max_int = 2^62 - 1; min_int magnitude is 2^62 = max_int + 1 *)
    let carry = ref 1 in
    let i = ref 0 in
    while !carry > 0 && !i < Array.length mag do
      let s = mag.(!i) + !carry in
      mag.(!i) <- s land mask;
      carry := s lsr base_bits;
      incr i
    done;
    let mag = if !carry > 0 then Array.append mag [| !carry |] else mag in
    { sign = -1; mag }
  else { (of_small_pos (-n)) with sign = -1 }

let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)

let sign a = a.sign
let is_zero a = a.sign = 0

(* Compare limbs i, i-1, .. 0 of two magnitudes, most significant first. *)
let rec compare_limbs a b i =
  if i < 0 then 0
  else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
  else compare_limbs a b (i - 1)

let compare_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb else compare_limbs a b (la - 1)

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then compare_mag a.mag b.mag
  else compare_mag b.mag a.mag

let equal a b = compare a b = 0

(* Bits of a non-negative native int, by halving the range. *)
let numbits_limb l =
  let n = ref 0 and l = ref l in
  if !l lsr 32 <> 0 then begin n := 32; l := !l lsr 32 end;
  if !l lsr 16 <> 0 then begin n := !n + 16; l := !l lsr 16 end;
  if !l lsr 8 <> 0 then begin n := !n + 8; l := !l lsr 8 end;
  if !l lsr 4 <> 0 then begin n := !n + 4; l := !l lsr 4 end;
  if !l lsr 2 <> 0 then begin n := !n + 2; l := !l lsr 2 end;
  if !l lsr 1 <> 0 then begin n := !n + 1; l := !l lsr 1 end;
  !n + !l

(* Bits of the value held in limbs 0 .. len-1, the top one non-zero. *)
let numbits_len mag len =
  if len = 0 then 0 else ((len - 1) * base_bits) + numbits_limb mag.(len - 1)

let numbits a = numbits_len a.mag (Array.length a.mag)

(* Magnitude addition: |a| + |b|. *)
let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lmax = if la > lb then la else lb in
  let r = Array.make (lmax + 1) 0 in
  let carry = ref 0 in
  for i = 0 to lmax - 1 do
    let x = if i < la then a.(i) else 0 in
    let y = if i < lb then b.(i) else 0 in
    let s = x + y + !carry in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  r.(lmax) <- !carry;
  r

(* Magnitude subtraction: |a| - |b|, requires |a| >= |b|. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let y = if i < lb then b.(i) else 0 in
    let d = a.(i) - y - !borrow in
    if d < 0 then begin r.(i) <- d + base; borrow := 1 end
    else begin r.(i) <- d; borrow := 0 end
  done;
  assert (!borrow = 0);
  r

let neg a = if a.sign = 0 then a else { a with sign = -a.sign }
let abs a = if a.sign < 0 then { a with sign = 1 } else a

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then normalize a.sign (add_mag a.mag b.mag)
  else begin
    let c = compare_mag a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then normalize a.sign (sub_mag a.mag b.mag)
    else normalize b.sign (sub_mag b.mag a.mag)
  end

let sub a b = add a (neg b)
let succ a = add a one
let pred a = sub a one

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make (la + lb) 0 in
  for i = 0 to la - 1 do
    let ai = a.(i) in
    if ai <> 0 then begin
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        let t = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- t land mask;
        carry := t lsr base_bits
      done;
      (* Propagate the final carry. *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let t = r.(!k) + !carry in
        r.(!k) <- t land mask;
        carry := t lsr base_bits;
        incr k
      done
    end
  done;
  r

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else normalize (a.sign * b.sign) (mul_mag a.mag b.mag)

(* ---- shifts --------------------------------------------------------------- *)

(* In-place shifts of limbs 0 .. n-1 by 0 <= s < base_bits bits.  The left
   shift returns the bits pushed out of limb n-1; the right shift drops
   the low bits and brings zeros in at the top. *)
let shl_in_place a n s =
  let carry = ref 0 in
  if s > 0 then
    for i = 0 to n - 1 do
      let t = (a.(i) lsl s) lor !carry in
      a.(i) <- t land mask;
      carry := t lsr base_bits
    done;
  !carry

let shr_in_place a n s =
  if s > 0 then
    for i = 0 to n - 1 do
      let hi = if i + 1 < n then (a.(i + 1) lsl (base_bits - s)) land mask else 0 in
      a.(i) <- (a.(i) lsr s) lor hi
    done

(* Limbs 0 .. len-1 of [dst] get floor (|src| / 2^n); [len] is the length
   of that quotient, so every limb read lies inside [src]. *)
let shr_into dst src n len =
  let limbs = n / base_bits and bits = n mod base_bits in
  if bits = 0 then Array.blit src limbs dst 0 len
  else begin
    let ls = Array.length src in
    for i = 0 to len - 1 do
      let j = i + limbs in
      let hi = if j + 1 < ls then (src.(j + 1) lsl (base_bits - bits)) land mask else 0 in
      dst.(i) <- (src.(j) lsr bits) lor hi
    done
  end

(* [sign · floor (|mag| / 2^n)], in one allocation. *)
let shift_right_mag sign mag n =
  let nb = numbits_len mag (Array.length mag) - n in
  if nb <= 0 then zero
  else begin
    let len = (nb + base_bits - 1) / base_bits in
    let r = Array.make len 0 in
    shr_into r mag n len;
    { sign; mag = r }
  end

let shift_left a n =
  if n < 0 then invalid_arg "Bigint.shift_left: negative shift";
  if a.sign = 0 || n = 0 then a
  else begin
    (* Sized for the result, so the bits pushed out of the top are zero. *)
    let r = Array.make ((numbits a + n + base_bits - 1) / base_bits) 0 in
    Array.blit a.mag 0 r (n / base_bits) (Array.length a.mag);
    ignore (shl_in_place r (Array.length r) (n mod base_bits));
    { sign = a.sign; mag = r }
  end

let shift_right a n =
  if n < 0 then invalid_arg "Bigint.shift_right: negative shift";
  if a.sign = 0 || n = 0 then a else shift_right_mag a.sign a.mag n

(* ---- division ------------------------------------------------------------- *)

(* Division of a non-zero magnitude by a single limb 0 < d < base: the
   quotient, sized so that its top limb is non-zero (empty when
   |a| < d), and the remainder limb. *)
let divmod_mag_limb a d =
  let la = Array.length a in
  let top = a.(la - 1) in
  let lq = if top < d then la - 1 else la in
  let q = Array.make lq 0 in
  let rem = ref (if top < d then top else 0) in
  for i = lq - 1 downto 0 do
    let cur = (!rem lsl base_bits) lor a.(i) in
    let qi = cur / d in
    q.(i) <- qi;
    rem := cur - (qi * d)
  done;
  (q, !rem)

(* Knuth's algorithm D in place.  [un] holds the dividend in limbs 0 .. m,
   shifted like the divisor [vn] of n >= 2 limbs so that vn's top limb has
   its high bit set.  On return limbs 0 .. n-1 of [un] hold the (shifted)
   remainder and limbs n .. m are zero; quotient digit j goes to [q.(j)]
   unless [q] is empty. *)
let knuth un vn n m q =
  let v1 = vn.(n - 1) and v2 = vn.(n - 2) in
  let want_q = Array.length q > 0 in
  for j = m - n downto 0 do
    let top = (un.(j + n) lsl base_bits) lor un.(j + n - 1) in
    let qhat = ref (top / v1) and rhat = ref (top mod v1) in
    let continue = ref true in
    while !continue do
      if !qhat >= base || !qhat * v2 > (!rhat lsl base_bits) lor un.(j + n - 2)
      then begin
        decr qhat;
        rhat := !rhat + v1;
        if !rhat >= base then continue := false
      end
      else continue := false
    done;
    (* Multiply and subtract: un[j .. j+n] -= qhat * vn. *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * vn.(i)) + !carry in
      carry := p lsr base_bits;
      let t = un.(i + j) - (p land mask) - !borrow in
      if t < 0 then begin un.(i + j) <- t + base; borrow := 1 end
      else begin un.(i + j) <- t; borrow := 0 end
    done;
    let t = un.(j + n) - !carry - !borrow in
    if t < 0 then begin
      (* qhat was one too large: add v back. *)
      un.(j + n) <- t + base;
      if want_q then q.(j) <- !qhat - 1;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let s2 = un.(i + j) + vn.(i) + !c in
        un.(i + j) <- s2 land mask;
        c := s2 lsr base_bits
      done;
      un.(j + n) <- (un.(j + n) + !c) land mask
    end
    else begin
      un.(j + n) <- t;
      if want_q then q.(j) <- !qhat
    end
  done

(* Quotient and, when [want_rem], remainder magnitudes of |u| >= |v|,
   length v >= 2; the remainder is [||] otherwise. *)
let divmod_mag_knuth u v want_rem =
  let n = Array.length v and m = Array.length u in
  (* Normalize so the top limb of v has its high bit set. *)
  let s = base_bits - numbits_limb v.(n - 1) in
  let vn = Array.copy v in
  ignore (shl_in_place vn n s);
  (* One guaranteed extra top limb on u. *)
  let un = Array.make (m + 1) 0 in
  Array.blit u 0 un 0 m;
  un.(m) <- shl_in_place un m s;
  let q = Array.make (m - n + 1) 0 in
  knuth un vn n m q;
  if not want_rem then (q, [||])
  else begin
    shr_in_place un n s;
    (q, Array.sub un 0 n)
  end

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  if a.sign = 0 then (zero, zero)
  else begin
    let c = compare_mag a.mag b.mag in
    if c < 0 then (zero, a)
    else if Array.length b.mag = 1 then begin
      let q, r = divmod_mag_limb a.mag b.mag.(0) in
      ({ sign = a.sign * b.sign; mag = q },
       if r = 0 then zero else { sign = a.sign; mag = [| r |] })
    end
    else begin
      let q, r = divmod_mag_knuth a.mag b.mag true in
      (normalize (a.sign * b.sign) q, normalize a.sign r)
    end
  end

(* Every limb below [n] is zero. *)
let rec low_zero mag n = n = 0 || (mag.(n - 1) = 0 && low_zero mag (n - 1))

(* The truncated quotient without the remainder.  The cases exact
   divisions meet most serve first: a divisor of ±1 returns the dividend,
   ±2^k shifts, one limb runs the single-limb loop. *)
let div a b =
  if b.sign = 0 then raise Division_by_zero;
  let lb = Array.length b.mag in
  let top = b.mag.(lb - 1) in
  if a.sign = 0 then zero
  else if lb = 1 && top = 1 then (if b.sign > 0 then a else neg a)
  else if top land (top - 1) = 0 && low_zero b.mag (lb - 1) then
    shift_right_mag (a.sign * b.sign) a.mag (numbits b - 1)
  else begin
    let la = Array.length a.mag in
    if la < lb || (la = lb && compare_mag a.mag b.mag < 0) then zero
    else if lb = 1 then { sign = a.sign * b.sign; mag = fst (divmod_mag_limb a.mag top) }
    else normalize (a.sign * b.sign) (fst (divmod_mag_knuth a.mag b.mag false))
  end

let rem a b = snd (divmod a b)

let ediv_rem a b =
  let q, r = divmod a b in
  if r.sign >= 0 then (q, r)
  else if b.sign > 0 then (pred q, add r b)
  else (succ q, sub r b)

(* ---- gcd ------------------------------------------------------------------ *)

(* Trailing zero bits of a non-zero magnitude. *)
let trailing_zeros mag =
  let i = ref 0 in
  while mag.(!i) = 0 do incr i done;
  (!i * base_bits) + numbits_limb (mag.(!i) land (- mag.(!i))) - 1

let pow2 k =
  let mag = Array.make ((k / base_bits) + 1) 0 in
  mag.(k / base_bits) <- 1 lsl (k mod base_bits);
  { sign = 1; mag }

(* floor (v / 2^s) as a native int, v the value in limbs 0 .. len-1 of
   [mag]; the caller knows the result is below 2^62. *)
let bits_from mag len s =
  let i = s / base_bits in
  if i >= len then 0
  else begin
    let v = ref 0 in
    for k = len - 1 downto i + 1 do v := (!v lsl base_bits) lor mag.(k) done;
    let r = s mod base_bits in
    (!v lsl (base_bits - r)) lor (mag.(i) lsr r)
  end

let rec gcd_native a b = if b = 0 then a else gcd_native b (a mod b)

(* Cofactors stay below 2^29, so a round's linear combination sums two
   products of under 2^59 with a carry: no native int overflows. *)
let cofactor_bound = 1 lsl 29

(* (u, v) <- (a·u + b·v, c·u + d·v) over limbs 0 .. n-1 in place.  Both
   results are remainders of Euclid's sequence, non-negative and below u,
   so the signed carries out of limb n-1 are zero. *)
let lin_comb u v n a b c d =
  let cu = ref 0 and cv = ref 0 in
  for i = 0 to n - 1 do
    let ui = u.(i) and vi = v.(i) in
    let t = (a * ui) + (b * vi) + !cu and w = (c * ui) + (d * vi) + !cv in
    u.(i) <- t land mask;
    cu := t asr base_bits;
    v.(i) <- w land mask;
    cv := w asr base_bits
  done

(* u <- u mod v in place, u in limbs 0 .. lu-1 with limb lu spare and zero,
   v in limbs 0 .. lv-1, lu >= lv >= 1.  v is shifted and shifted back. *)
let rem_in_place u lu v lv =
  if lv = 1 then begin
    let d = v.(0) in
    let r = ref 0 in
    for i = lu - 1 downto 0 do
      r := ((!r lsl base_bits) lor u.(i)) mod d;
      u.(i) <- 0
    done;
    u.(0) <- !r
  end
  else begin
    let s = base_bits - numbits_limb v.(lv - 1) in
    ignore (shl_in_place v lv s);
    u.(lu) <- shl_in_place u lu s;
    knuth u v lv lu [||];
    shr_in_place u lv s;
    shr_in_place v lv s
  end

(* Lehmer's gcd of u >= v > 0, held in limbs 0 .. lu-1 and 0 .. lv-1 of
   two scratch arrays of one length, at least lu + 1, zero above their
   values.  Each round reads the leading 61 bits of u and the same bits
   of v, runs Euclid on them in native ints while both ends of each
   quotient's range agree (Knuth's Algorithm L) and the cofactors stay
   under [cofactor_bound], then applies the cofactors to the full values
   in one pass.  A round that can take no step (its first quotient is
   uncertain or too large) makes one true division instead.  Native
   Euclid finishes once u fits in 62 bits. *)
let lehmer u lu v lv =
  let u = ref u and lu = ref lu and v = ref v and lv = ref lv in
  let nu = ref (numbits_len !u !lu) in
  while !lv > 0 && !nu > 62 do
    let s = !nu - 61 in
    let x = ref (bits_from !u !lu s) and y = ref (bits_from !v !lv s) in
    let a = ref 1 and b = ref 0 and c = ref 0 and d = ref 1 in
    let go = ref true in
    while !go do
      let yc = !y + !c and yd = !y + !d in
      if yc = 0 || yd = 0 then go := false
      else begin
        let q = (!x + !a) / yc in
        if q <> (!x + !b) / yd || q >= cofactor_bound then go := false
        else begin
          let nc = !a - (q * !c) and nd = !b - (q * !d) in
          if Stdlib.abs nc >= cofactor_bound || Stdlib.abs nd >= cofactor_bound then
            go := false
          else begin
            a := !c; c := nc;
            b := !d; d := nd;
            let t = !x - (q * !y) in
            x := !y; y := t
          end
        end
      end
    done;
    if !b = 0 then begin
      rem_in_place !u !lu !v !lv;
      let r = !u in
      u := !v; lu := !lv;
      v := r; lv := top_len r !lv
    end
    else begin
      lin_comb !u !v !lu !a !b !c !d;
      lv := top_len !v !lu;
      lu := top_len !u !lu
    end;
    nu := numbits_len !u !lu
  done;
  if !lv = 0 then { sign = 1; mag = Array.sub !u 0 !lu }
  else of_small_pos (gcd_native (bits_from !u !lu 0) (bits_from !v !lv 0))

(* gcd (2^i a', 2^j b') = 2^min(i,j) gcd (a', b') for odd a', b'.  Every
   denominator of a rational read from a double is a power of two, so an
   odd part is often 1 and the answer is the power of two alone.  Odd
   parts of at most 62 bits meet in native Euclid; larger ones are copied
   into scratch arrays for [lehmer]. *)
let gcd a b =
  if a.sign = 0 then abs b
  else if b.sign = 0 then abs a
  else begin
    let za = trailing_zeros a.mag and zb = trailing_zeros b.mag in
    let z = Stdlib.min za zb in
    let na = numbits a - za and nb = numbits b - zb in
    if na = 1 || nb = 1 then pow2 z
    else begin
      let la = Array.length a.mag and lb = Array.length b.mag in
      let g =
        if na <= 62 && nb <= 62 then
          of_small_pos (gcd_native (bits_from a.mag la za) (bits_from b.mag lb zb))
        else begin
          let lu = (na + base_bits - 1) / base_bits
          and lv = (nb + base_bits - 1) / base_bits in
          let cap = Stdlib.max lu lv + 1 in
          let u = Array.make cap 0 and v = Array.make cap 0 in
          shr_into u a.mag za lu;
          shr_into v b.mag zb lv;
          if na > nb || (na = nb && compare_limbs u v (lu - 1) >= 0)
          then lehmer u lu v lv
          else lehmer v lv u lu
        end
      in
      shift_left g z
    end
  end

let pow b e =
  if e < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (e lsr 1)
    end
  in
  go one b e

let fits_int a =
  (* Native ints hold 62 bits of magnitude (63-bit ints, one sign bit);
     min_int itself has a 63-bit magnitude and needs a special case. *)
  numbits a <= 62
  || (a.sign < 0 && numbits a = 63 && equal a (of_int min_int))

let to_int_opt a =
  if not (fits_int a) then None
  else if a.sign = 0 then Some 0
  else if a.sign < 0 && numbits a = 63 then Some min_int
  else begin
    let v = ref 0 in
    for i = Array.length a.mag - 1 downto 0 do
      v := (!v lsl base_bits) lor a.mag.(i)
    done;
    Some (a.sign * !v)
  end

let to_int a =
  match to_int_opt a with
  | Some v -> v
  | None -> failwith "Bigint.to_int: value does not fit"

let to_float a =
  if a.sign = 0 then 0.0
  else begin
    let nb = numbits a in
    if nb <= 62 then float_of_int (to_int a)
    else begin
      (* Take the top 62 bits and rescale. *)
      let top = shift_right (abs a) (nb - 62) in
      let f = ldexp (float_of_int (to_int top)) (nb - 62) in
      if a.sign < 0 then -.f else f
    end
  end

let chunk_base = 1_000_000_000 (* < 2^30 *)

let to_string a =
  if a.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec chunks mag acc =
      let q, r = divmod_mag_limb mag chunk_base in
      if Array.length q = 0 then r :: acc else chunks q (r :: acc)
    in
    match chunks a.mag [] with
    | [] -> assert false
    | first :: rest ->
      if a.sign < 0 then Buffer.add_char buf '-';
      Buffer.add_string buf (string_of_int first);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest;
      Buffer.contents buf
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let sign, start =
    match s.[0] with
    | '-' -> (-1, 1)
    | '+' -> (1, 1)
    | '0' .. '9' -> (1, 0)
    | _ -> invalid_arg "Bigint.of_string: malformed input"
  in
  if start >= len then invalid_arg "Bigint.of_string: malformed input";
  let acc = ref zero in
  let chunk = ref 0 and chunk_len = ref 0 in
  let flush () =
    if !chunk_len > 0 then begin
      let scale = pow (of_int 10) !chunk_len in
      acc := add (mul !acc scale) (of_int !chunk);
      chunk := 0;
      chunk_len := 0
    end
  in
  for i = start to len - 1 do
    match s.[i] with
    | '0' .. '9' as c ->
      chunk := (!chunk * 10) + (Char.code c - Char.code '0');
      incr chunk_len;
      if !chunk_len = 9 then flush ()
    | _ -> invalid_arg "Bigint.of_string: malformed input"
  done;
  flush ();
  if sign < 0 then neg !acc else !acc

let pp fmt a = Format.pp_print_string fmt (to_string a)

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
