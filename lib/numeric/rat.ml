(* Normalized rationals: den > 0, gcd (num, den) = 1, zero is 0/1.

   Two-tier representation.  [S (n, d)] carries the components in native
   ints (the canonical form whenever both fit; [min_int] is excluded so
   negation and [abs] never overflow).  [L (n, d)] is the Bigint-backed
   fallback used only when a component genuinely needs more than 62 bits.
   Every constructor demotes back to [S] when possible, so structural
   equality of the canonical forms coincides with rational equality.

   The fast paths use overflow-checked native arithmetic: any operation
   whose intermediate product or sum could wrap raises [Fall] and is
   re-run on Bigints.  A pair of domain-local counters records how often
   each route is taken; the solver instrumentation reads them via
   [stats]. *)

type t =
  | S of int * int
  | L of Bigint.t * Bigint.t

(* ---- fast/slow accounting --------------------------------------------- *)

type ops_stats = { fast_hits : int; fast_falls : int }

(* Domain-local accumulators: rational arithmetic runs inside whichever
   domain hosts the solver, so shared [int ref]s would lose increments
   under parallel sweeps.  Each domain counts its own operations;
   [add_stats] lets a coordinator fold a finished worker's counts into
   its own. *)
type acc = { mutable h : int; mutable f : int }

let acc_key = Domain.DLS.new_key (fun () -> { h = 0; f = 0 })
let[@inline] acc () = Domain.DLS.get acc_key
let[@inline] incr_hits () = let a = acc () in a.h <- a.h + 1
let[@inline] incr_falls () = let a = acc () in a.f <- a.f + 1
let stats () = let a = acc () in { fast_hits = a.h; fast_falls = a.f }

let reset_stats () =
  let a = acc () in
  a.h <- 0;
  a.f <- 0

let add_stats s =
  let a = acc () in
  a.h <- a.h + s.fast_hits;
  a.f <- a.f + s.fast_falls

(* ---- overflow-checked native arithmetic -------------------------------- *)

exception Fall

let[@inline] chk_mul a b =
  let p = a * b in
  if a <> 0 && (p / a <> b || (a = -1 && b = min_int)) then raise_notrace Fall;
  p

let[@inline] chk_add a b =
  let s = a + b in
  if a >= 0 = (b >= 0) && s >= 0 <> (a >= 0) then raise_notrace Fall;
  s

let rec igcd a b = if b = 0 then a else igcd b (a mod b)

let zero = S (0, 1)
let one = S (1, 1)

(* [small n d]: build the canonical small form from an un-reduced pair
   with [d > 0].  Falls to the big path when a component is [min_int]
   (its negation/abs would overflow). *)
let small n d =
  if n = min_int || d = min_int then raise_notrace Fall;
  if n = 0 then zero
  else begin
    let g = igcd (abs n) d in
    if g = 1 then S (n, d) else S (n / g, d / g)
  end

(* ---- Bigint fallback --------------------------------------------------- *)

(* Demote a normalized big pair back to the small form when it fits.
   [min_int] components are kept big so the small invariant holds. *)
let demote n d =
  match Bigint.to_int_opt n, Bigint.to_int_opt d with
  | Some sn, Some sd when sn <> min_int && sd <> min_int -> S (sn, sd)
  | _ -> L (n, d)

let big_norm n d =
  (* d > 0 required here. *)
  if Bigint.is_zero n then zero
  else begin
    let g = Bigint.gcd n d in
    if Bigint.equal g Bigint.one then demote n d
    else demote (Bigint.div n g) (Bigint.div d g)
  end

let num = function S (n, _) -> Bigint.of_int n | L (n, _) -> n
let den = function S (_, d) -> Bigint.of_int d | L (_, d) -> d

let make n d =
  match Bigint.sign d with
  | 0 -> raise Division_by_zero
  | s when s > 0 -> big_norm n d
  | _ -> big_norm (Bigint.neg n) (Bigint.neg d)

let of_bigint n = demote n Bigint.one

let of_int i = if i = min_int then of_bigint (Bigint.of_int i) else S (i, 1)

let of_ints a b =
  if b = 0 then raise Division_by_zero
  else if a = min_int || b = min_int then make (Bigint.of_int a) (Bigint.of_int b)
  else begin
    let a, b = if b < 0 then -a, -b else a, b in
    if a = 0 then zero
    else begin
      let g = igcd (abs a) b in
      S (a / g, b / g)
    end
  end

(* ---- arithmetic --------------------------------------------------------- *)

let add_big an ad bn bd =
  big_norm (Bigint.add (Bigint.mul an bd) (Bigint.mul bn ad)) (Bigint.mul ad bd)

let add a b =
  match a, b with
  | S (an, ad), S (bn, bd) ->
    (try
       let n = chk_add (chk_mul an bd) (chk_mul bn ad) in
       let d = chk_mul ad bd in
       let r = small n d in
       incr_hits ();
       r
     with Fall ->
       incr_falls ();
       add_big (Bigint.of_int an) (Bigint.of_int ad) (Bigint.of_int bn)
         (Bigint.of_int bd))
  | _ ->
    incr_falls ();
    add_big (num a) (den a) (num b) (den b)

let neg = function
  | S (n, d) -> S (-n, d)
  | L (n, d) -> L (Bigint.neg n, d)

let sub a b = add a (neg b)

let mul_big an ad bn bd =
  (* Cross-reduce before multiplying to keep limbs small. *)
  let g1 = Bigint.gcd an bd and g2 = Bigint.gcd bn ad in
  let n1 = Bigint.div an g1 and d2 = Bigint.div bd g1 in
  let n2 = Bigint.div bn g2 and d1 = Bigint.div ad g2 in
  let n = Bigint.mul n1 n2 and d = Bigint.mul d1 d2 in
  if Bigint.is_zero n then zero else demote n d

let mul a b =
  match a, b with
  | S (an, ad), S (bn, bd) ->
    (try
       (* Cross-reduction leaves the product already in lowest terms. *)
       let g1 = igcd (abs an) bd and g2 = igcd (abs bn) ad in
       let n = chk_mul (an / g1) (bn / g2) in
       let d = chk_mul (ad / g2) (bd / g1) in
       if n = min_int then raise_notrace Fall;
       incr_hits ();
       if n = 0 then zero else S (n, d)
     with Fall ->
       incr_falls ();
       mul_big (Bigint.of_int an) (Bigint.of_int ad) (Bigint.of_int bn)
         (Bigint.of_int bd))
  | _ ->
    incr_falls ();
    mul_big (num a) (den a) (num b) (den b)

let inv = function
  | S (0, _) -> raise Division_by_zero
  | S (n, d) -> if n > 0 then S (d, n) else S (-d, -n)
  | L (n, d) ->
    (match Bigint.sign n with
     | 0 -> raise Division_by_zero
     | s when s > 0 -> demote d n
     | _ -> demote (Bigint.neg d) (Bigint.neg n))

let div a b = mul a (inv b)
let sign = function S (n, _) -> compare n 0 | L (n, _) -> Bigint.sign n
let is_zero a = sign a = 0
let abs a = if sign a < 0 then neg a else a

(* Exact native comparison of n1/d1 vs n2/d2 (d1, d2 > 0) by the
   continued-fraction expansion: compare integer parts, then compare the
   remainders' reciprocals with the roles flipped.  Never overflows, and
   terminates because the denominators follow the Euclidean descent. *)
let rec cmp_frac n1 d1 n2 d2 =
  let q1 = n1 / d1 and r1 = n1 mod d1 in
  let q1, r1 = if r1 < 0 then q1 - 1, r1 + d1 else q1, r1 in
  let q2 = n2 / d2 and r2 = n2 mod d2 in
  let q2, r2 = if r2 < 0 then q2 - 1, r2 + d2 else q2, r2 in
  if q1 <> q2 then compare q1 q2
  else if r1 = 0 && r2 = 0 then 0
  else if r1 = 0 then -1
  else if r2 = 0 then 1
  else cmp_frac d2 r2 d1 r1

let compare a b =
  match a, b with
  | S (an, ad), S (bn, bd) ->
    (* Cheap cross-multiplication when it cannot wrap, else the exact
       continued-fraction walk — the fast tier never falls to Bigint. *)
    (try
       let c = compare (chk_mul an bd) (chk_mul bn ad) in
       incr_hits ();
       c
     with Fall ->
       incr_hits ();
       cmp_frac an ad bn bd)
  | _ ->
    incr_falls ();
    (* a.n/a.d ? b.n/b.d  <=>  a.n*b.d ? b.n*a.d  (denominators positive). *)
    Bigint.compare (Bigint.mul (num a) (den b)) (Bigint.mul (num b) (den a))

let equal a b =
  match a, b with
  | S (an, ad), S (bn, bd) -> an = bn && ad = bd
  | L (an, ad), L (bn, bd) -> Bigint.equal an bn && Bigint.equal ad bd
  | _ ->
    (* Canonical forms: a value is [L] only when it does not fit [S]. *)
    false

let lt a b = compare a b < 0
let le a b = compare a b <= 0
let gt a b = compare a b > 0
let ge a b = compare a b >= 0
let min_rat a b = if le a b then a else b
let max_rat a b = if ge a b then a else b
let min = min_rat
let max = max_rat

let floor = function
  | S (n, d) ->
    let q = n / d and r = n mod d in
    Bigint.of_int (if r < 0 then q - 1 else q)
  | L (n, d) ->
    let q, r = Bigint.divmod n d in
    if Bigint.sign r < 0 then Bigint.pred q else q

let ceil = function
  | S (n, d) ->
    let q = n / d and r = n mod d in
    Bigint.of_int (if r > 0 then q + 1 else q)
  | L (n, d) ->
    let q, r = Bigint.divmod n d in
    if Bigint.sign r > 0 then Bigint.succ q else q

let of_float f =
  if f <> f then invalid_arg "Rat.of_float: nan";
  if f = infinity || f = neg_infinity then invalid_arg "Rat.of_float: infinite";
  if f = 0.0 then zero
  else begin
    let m, e = Float.frexp f in
    (* m * 2^53 is an exact 53-bit integer. *)
    let n53 = Int64.to_int (Int64.of_float (Float.ldexp m 53)) in
    let e = e - 53 in
    if e >= 0 then
      if e <= 9 then (* |n53| < 2^53, so the shift stays below 2^62. *)
        of_int (n53 lsl e)
      else of_bigint (Bigint.shift_left (Bigint.of_int n53) e)
    else if e >= -61 then of_ints n53 (1 lsl -e)
    else make (Bigint.of_int n53) (Bigint.shift_left Bigint.one (-e))
  end

let to_float = function
  | S (n, d) -> float_of_int n /. float_of_int d
  | L (n, d) ->
    (* Scale so both operands fit comfortably in a double. *)
    let bn = Bigint.numbits n and bd = Bigint.numbits d in
    let shift = Stdlib.max 0 (Stdlib.min bn bd - 62) in
    if bn - shift > 1024 || bd - shift > 1024 then begin
      (* One side would still convert to infinity (a tiny or huge
         value): bring each to 62 bits and put the exponent back
         afterwards. *)
      let top62 x bx =
        Bigint.to_float
          (if bx > 62 then Bigint.shift_right x (bx - 62)
           else Bigint.shift_left x (62 - bx))
      in
      ldexp (top62 n bn /. top62 d bd) (bn - bd)
    end
    else begin
      let nf = Bigint.to_float (Bigint.shift_right n shift) in
      let df = Bigint.to_float (Bigint.shift_right d shift) in
      nf /. df
    end

let to_string = function
  | S (n, 1) -> string_of_int n
  | S (n, d) -> string_of_int n ^ "/" ^ string_of_int d
  | L (n, d) ->
    if Bigint.equal d Bigint.one then Bigint.to_string n
    else Bigint.to_string n ^ "/" ^ Bigint.to_string d

let pp fmt a = Format.pp_print_string fmt (to_string a)

let of_string s =
  match String.index_opt s '/' with
  | Some i ->
    let n = Bigint.of_string (String.sub s 0 i) in
    let d = Bigint.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
    make n d
  | None ->
    match String.index_opt s '.' with
    | None -> of_bigint (Bigint.of_string s)
    | Some i ->
      let int_part = String.sub s 0 i in
      let frac = String.sub s (i + 1) (String.length s - i - 1) in
      if frac = "" then invalid_arg "Rat.of_string: malformed decimal";
      let digits = String.length frac in
      let combined = Bigint.of_string (int_part ^ frac) in
      make combined (Bigint.pow (Bigint.of_int 10) digits)
