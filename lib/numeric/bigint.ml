(* Sign-magnitude bignums in base 2^30.  Limbs are stored little-endian in
   an int array with no leading (most-significant) zero limb; zero is the
   unique value with an empty magnitude and sign 0.  All limb products fit
   in OCaml's 63-bit native ints: (2^30 - 1)^2 + 2*(2^30 - 1) < 2^61. *)

let base_bits = 30
let base = 1 lsl base_bits
let mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

(* Strip most-significant zero limbs; detect zero. *)
let normalize sign mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do decr n done;
  if !n = 0 then zero
  else if !n = Array.length mag then { sign; mag }
  else { sign; mag = Array.sub mag 0 !n }

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

let compare_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then compare_mag a.mag b.mag
  else compare_mag b.mag a.mag

let equal a b = compare a b = 0

let hash a =
  Array.fold_left (fun acc limb -> (acc * 31 + limb) land max_int) a.sign a.mag

let numbits_limb l =
  let rec go l acc = if l = 0 then acc else go (l lsr 1) (acc + 1) in
  go l 0

let numbits a =
  let n = Array.length a.mag in
  if n = 0 then 0 else (n - 1) * base_bits + numbits_limb a.mag.(n - 1)

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

let mul_int a n = mul a (of_int n)
let add_int a n = add a (of_int n)

(* Shift a magnitude left by [s] bits, 0 <= s < base_bits. *)
let shift_mag_left_small a s =
  if s = 0 then Array.copy a
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let t = (a.(i) lsl s) lor !carry in
      r.(i) <- t land mask;
      carry := t lsr base_bits
    done;
    r.(la) <- !carry;
    r
  end

(* Shift a magnitude right by [s] bits, 0 <= s < base_bits. *)
let shift_mag_right_small a s =
  if s = 0 then Array.copy a
  else begin
    let la = Array.length a in
    let r = Array.make la 0 in
    for i = 0 to la - 1 do
      let lo = a.(i) lsr s in
      let hi = if i + 1 < la then (a.(i + 1) lsl (base_bits - s)) land mask else 0 in
      r.(i) <- lo lor hi
    done;
    r
  end

let shift_left a n =
  if n < 0 then invalid_arg "Bigint.shift_left: negative shift";
  if a.sign = 0 || n = 0 then a
  else begin
    let limbs = n / base_bits and bits = n mod base_bits in
    let shifted = shift_mag_left_small a.mag bits in
    let mag = Array.append (Array.make limbs 0) shifted in
    normalize a.sign mag
  end

let shift_right a n =
  if n < 0 then invalid_arg "Bigint.shift_right: negative shift";
  if a.sign = 0 || n = 0 then a
  else begin
    let limbs = n / base_bits and bits = n mod base_bits in
    let la = Array.length a.mag in
    if limbs >= la then zero
    else begin
      let dropped = Array.sub a.mag limbs (la - limbs) in
      normalize a.sign (shift_mag_right_small dropped bits)
    end
  end

(* Division of a magnitude by a single limb 0 < d < base.
   Returns quotient magnitude and remainder limb. *)
let divmod_mag_limb a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let rem = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!rem lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    rem := cur mod d
  done;
  (q, !rem)

(* Knuth algorithm D on magnitudes; |u| >= |v|, length v >= 2.
   Returns (quotient, remainder) magnitudes. *)
let divmod_mag_knuth u v =
  let n = Array.length v in
  let m = Array.length u in
  (* Normalize so the top limb of v has its high bit set. *)
  let s = base_bits - numbits_limb v.(n - 1) in
  let vn = shift_mag_left_small v s in
  let vn = Array.sub vn 0 n in
  (* One guaranteed extra top limb on u. *)
  let un0 = shift_mag_left_small u s in
  let un =
    if Array.length un0 = m + 1 then un0 else Array.append un0 [| 0 |]
  in
  let q = Array.make (m - n + 1) 0 in
  let v1 = vn.(n - 1) and v2 = vn.(n - 2) in
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
      q.(j) <- !qhat - 1;
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
      q.(j) <- !qhat
    end
  done;
  let r = shift_mag_right_small (Array.sub un 0 n) s in
  (q, r)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  if a.sign = 0 then (zero, zero)
  else begin
    let c = compare_mag a.mag b.mag in
    if c < 0 then (zero, a)
    else if Array.length b.mag = 1 then begin
      let q, r = divmod_mag_limb a.mag b.mag.(0) in
      (normalize (a.sign * b.sign) q,
       if r = 0 then zero else { sign = a.sign; mag = [| r |] })
    end
    else begin
      let q, r = divmod_mag_knuth a.mag b.mag in
      (normalize (a.sign * b.sign) q, normalize a.sign r)
    end
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let ediv_rem a b =
  let q, r = divmod a b in
  if r.sign >= 0 then (q, r)
  else if b.sign > 0 then (pred q, add r b)
  else (succ q, sub r b)

(* Trailing zero bits of a non-zero magnitude. *)
let trailing_zeros mag =
  let i = ref 0 in
  while mag.(!i) = 0 do incr i done;
  let k = ref 0 in
  while (mag.(!i) lsr !k) land 1 = 0 do incr k done;
  (!i * base_bits) + !k

let pow2 k =
  let mag = Array.make ((k / base_bits) + 1) 0 in
  mag.(k / base_bits) <- 1 lsl (k mod base_bits);
  { sign = 1; mag }

(* Value of a magnitude of at most two limbs. *)
let two_limbs mag =
  match Array.length mag with
  | 0 -> 0
  | 1 -> mag.(0)
  | _ -> mag.(0) lor (mag.(1) lsl base_bits)

let rec gcd_native a b = if b = 0 then a else gcd_native b (a mod b)

(* Euclid on non-negative values, finished on native ints once both fit
   in two limbs. *)
let rec euclid a b =
  if Array.length a.mag <= 2 && Array.length b.mag <= 2 then
    of_small_pos (gcd_native (two_limbs a.mag) (two_limbs b.mag))
  else if b.sign = 0 then a
  else euclid b (rem a b)

(* gcd (2^i a', 2^j b') = 2^min(i,j) gcd (a', b') for odd a', b'.  Every
   denominator of a rational read from a double is a power of two, so an
   odd part is often 1 and the answer is the power of two alone. *)
let gcd a b =
  if a.sign = 0 then abs b
  else if b.sign = 0 then abs a
  else begin
    let za = trailing_zeros a.mag and zb = trailing_zeros b.mag in
    let z = Stdlib.min za zb in
    if numbits a = za + 1 || numbits b = zb + 1 then pow2 z
    else shift_left (euclid (shift_right (abs a) za) (shift_right (abs b) zb)) z
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
      let len = ref (Array.length q) in
      while !len > 0 && q.(!len - 1) = 0 do decr len done;
      if !len = 0 then r :: acc
      else chunks (Array.sub q 0 !len) (r :: acc)
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
let lt a b = compare a b < 0
let le a b = compare a b <= 0
let gt a b = compare a b > 0
let ge a b = compare a b >= 0
