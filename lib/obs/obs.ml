(* Observability singleton: levels, counters, spans, event journal.

   Everything here is deliberately dependency-free (only [unix] for the
   clock) so that any layer of the system — numeric, flow, engine,
   experiments — can report through it without dependency cycles.

   Domain safety.  All mutable observability state (level, counter
   cells, span aggregates, journal buffer, streaming sink) is
   domain-local: each domain accumulates into its own copy, reached
   through one [Domain.DLS] slot, so hot-path increments never contend
   and never lose updates.  Only the counter name registry (name → id)
   is process-global, guarded by a mutex; it is written during module
   initialization and rarely after.  A worker domain's accumulated state
   is folded back into its parent with {!Export} — deltas are captured
   around a unit of work and merged in whatever canonical order the
   caller fixes, which is how the parallel sweep engine keeps merged
   journals bit-identical to a sequential run. *)

type level = Counters | Spans | Events

let level_rank = function Counters -> 0 | Spans -> 1 | Events -> 2

(* ---- journal event type (needed by the domain state) ------------------- *)

module Journal_t = struct
  type sim_kind = Arrival | Completion | Boundary | Failure | Recovery

  type alloc = (int * (int * float) list) list

  type event =
    | Run_start of { scheduler : string; jobs : int; machines : int }
    | Sim_event of { time : float; kind : sim_kind; subject : int }
    | Replan of {
        time : float;
        scheduler : string;
        allocation : alloc;
        horizon : float option;
      }
    | Segment of { start_time : float; end_time : float; shares : alloc }
    | Probe of { pipeline : string; stretch : float; feasible : bool }
    | Span_closed of {
        name : string;
        depth : int;
        start_s : float;
        dur_s : float;
      }
    | Note of { key : string; value : string }
    | Run_end of { time : float; completed : int }
end

open Journal_t

let dummy_event = Note { key = ""; value = "" }

(* ---- per-domain state -------------------------------------------------- *)

type span_agg = { mutable s_count : int; mutable s_total : float }

type dstate = {
  mutable lvl : level;
  mutable clock : unit -> float;
  mutable cells : int array;  (* counter values, indexed by registry id *)
  spans : (string, span_agg) Hashtbl.t;
  mutable depth : int;
  mutable jbuf : event array;
  mutable jlen : int;
  mutable sink : (event -> unit) option;
}

let fresh_dstate ~lvl ~clock =
  { lvl;
    clock;
    cells = Array.make 32 0;
    spans = Hashtbl.create 16;
    depth = 0;
    jbuf = Array.make 256 dummy_event;
    jlen = 0;
    sink = None }

(* A spawned domain inherits its parent's verbosity level and clock (so
   parallel shards trace at the level the coordinator chose) but starts
   with empty accumulators. *)
let dstate_key : dstate Domain.DLS.key =
  Domain.DLS.new_key
    ~split_from_parent:(fun parent ->
      fresh_dstate ~lvl:parent.lvl ~clock:parent.clock)
    (fun () -> fresh_dstate ~lvl:Counters ~clock:Unix.gettimeofday)

let[@inline] st () = Domain.DLS.get dstate_key

let level () = (st ()).lvl
let set_level l = (st ()).lvl <- l

let with_level l f =
  let s = st () in
  let saved = s.lvl in
  s.lvl <- l;
  Fun.protect ~finally:(fun () -> s.lvl <- saved) f

let spans_on () = level_rank (st ()).lvl >= 1
let events_on () = level_rank (st ()).lvl >= 2

let set_clock c = (st ()).clock <- c

(* ---- global registry --------------------------------------------------- *)

(* Registrations happen at module-initialization time in practice, but
   tests (and worker domains warming up lazily) may race them, so every
   access to the shared table takes the lock.  None of these paths is
   hot: the hot path is [Counter.incr], which touches only domain-local
   cells. *)
let reg_mutex = Mutex.create ()

let locked f =
  Mutex.lock reg_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg_mutex) f

let reg_ids : (string, int) Hashtbl.t = Hashtbl.create 32
let reg_names : string array ref = ref (Array.make 32 "")
let reg_count = ref 0

(* ---- counters ---------------------------------------------------------- *)

let cell s id = if id < Array.length s.cells then s.cells.(id) else 0

module Counter = struct
  type t = { name : string; id : int }

  let make name =
    locked (fun () ->
        match Hashtbl.find_opt reg_ids name with
        | Some id -> { name; id }
        | None ->
          let id = !reg_count in
          incr reg_count;
          if id >= Array.length !reg_names then begin
            let bigger = Array.make (2 * id) "" in
            Array.blit !reg_names 0 bigger 0 (Array.length !reg_names);
            reg_names := bigger
          end;
          !reg_names.(id) <- name;
          Hashtbl.replace reg_ids name id;
          { name; id })

  let[@inline] cells_for s id =
    if id >= Array.length s.cells then begin
      let bigger = Array.make (max (2 * Array.length s.cells) (id + 1)) 0 in
      Array.blit s.cells 0 bigger 0 (Array.length s.cells);
      s.cells <- bigger
    end;
    s.cells

  let incr c =
    let s = st () in
    let cells = cells_for s c.id in
    cells.(c.id) <- cells.(c.id) + 1

  let add c k =
    let s = st () in
    let cells = cells_for s c.id in
    cells.(c.id) <- cells.(c.id) + k

  let value c = cell (st ()) c.id

  let reset c =
    let s = st () in
    if c.id < Array.length s.cells then s.cells.(c.id) <- 0

  let name c = c.name
end

(* Registered (name, id) pairs, sorted by name; snapshot under the lock. *)
let registered () =
  locked (fun () ->
      Hashtbl.fold (fun name id acc -> (name, id) :: acc) reg_ids [])

let counters () =
  let s = st () in
  List.map (fun (name, id) -> (name, cell s id)) (registered ())
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counter_value name =
  Option.map (cell (st ())) (locked (fun () -> Hashtbl.find_opt reg_ids name))

let reset_counters () =
  let s = st () in
  Array.fill s.cells 0 (Array.length s.cells) 0

(* ---- journal store ----------------------------------------------------- *)

let journal_push s e =
  if s.jlen = Array.length s.jbuf then begin
    let bigger = Array.make (2 * s.jlen) dummy_event in
    Array.blit s.jbuf 0 bigger 0 s.jlen;
    s.jbuf <- bigger
  end;
  s.jbuf.(s.jlen) <- e;
  s.jlen <- s.jlen + 1;
  match s.sink with Some f -> f e | None -> ()

(* ---- spans ------------------------------------------------------------- *)

module Span = struct
  let agg_of s name =
    match Hashtbl.find_opt s.spans name with
    | Some a -> a
    | None ->
      let a = { s_count = 0; s_total = 0.0 } in
      Hashtbl.replace s.spans name a;
      a

  let close s name d t0 =
    let dur = s.clock () -. t0 in
    let a = agg_of s name in
    a.s_count <- a.s_count + 1;
    a.s_total <- a.s_total +. dur;
    if level_rank s.lvl >= 2 then
      journal_push s (Span_closed { name; depth = d; start_s = t0; dur_s = dur })

  let with_ name f =
    let s = st () in
    if level_rank s.lvl < 1 then f ()
    else begin
      let d = s.depth in
      s.depth <- d + 1;
      let t0 = s.clock () in
      match f () with
      | v ->
        s.depth <- d;
        close s name d t0;
        v
      | exception e ->
        s.depth <- d;
        close s name d t0;
        raise e
    end

  type summary = { name : string; count : int; total_s : float }

  let summaries () =
    Hashtbl.fold
      (fun name (a : span_agg) acc ->
        { name; count = a.s_count; total_s = a.s_total } :: acc)
      (st ()).spans []
    |> List.sort (fun a b -> String.compare a.name b.name)

  let total name =
    match Hashtbl.find_opt (st ()).spans name with
    | Some a -> a.s_total
    | None -> 0.0

  let total_prefix prefix =
    Hashtbl.fold
      (fun name (a : span_agg) acc ->
        if String.starts_with ~prefix name then acc +. a.s_total else acc)
      (st ()).spans 0.0

  let count name =
    match Hashtbl.find_opt (st ()).spans name with
    | Some a -> a.s_count
    | None -> 0

  let reset () =
    let s = st () in
    Hashtbl.reset s.spans;
    s.depth <- 0
end

(* ---- journal: API and JSONL -------------------------------------------- *)

module Journal = struct
  include Journal_t

  let on () = events_on ()

  let record e =
    let s = st () in
    if level_rank s.lvl >= 2 then journal_push s e

  let set_sink sk = (st ()).sink <- sk

  let forward e = match (st ()).sink with Some f -> f e | None -> ()

  let position () = (st ()).jlen

  (* A mark past the end (the journal was cleared since) is clamped:
     only what is still buffered comes back. *)
  let since k =
    let s = st () in
    let from = min (max k 0) s.jlen in
    Array.to_list (Array.sub s.jbuf from (s.jlen - from))

  let events () = since 0

  let clear () = (st ()).jlen <- 0

  (* -- JSON writing.  17 significant digits round-trip every finite
     double; non-finite floats are encoded as null / signed sentinels. -- *)

  module Writer = struct
    (* [scratch] holds an int's text on its way to the buffer, and a
       float's 17 digits before they are laid out.  The memo pairs the
       last float that missed the int path with its text,
       [memo_b.[0 .. memo_len)]; the float sits in an unboxed one-cell
       array (a mutable float field of this record would box on every
       store).  The initial pair (+0.0, "0") is consistent, and the int
       path intercepts +0.0 before the memo is consulted. *)
    type t = {
      buf : Buffer.t;
      scratch : Bytes.t;
      memo : float array;
      memo_b : Bytes.t;
      mutable memo_len : int;
    }

    (* [scratch] fits [min_int]'s 19 digits and sign; [memo_b] the
       longest [%.17g] text, 24 bytes ("-2.2250738585072014e-308"). *)
    let create () =
      { buf = Buffer.create 256; scratch = Bytes.create 20; memo = [| 0.0 |];
        memo_b = Bytes.make 32 '0'; memo_len = 1 }

    let buffer w = w.buf

    (* "00" to "99": the digits of [r] are at [2r] and [2r + 1]. *)
    let pairs =
      String.init 200 (fun i ->
          Char.chr (48 + if i land 1 = 0 then i / 20 else i / 2 mod 10))

    (* Write the digits of [m <= 0] into [b], two per step, ending just
       before [stop]; return where they start.  Working on the
       non-positive side covers [min_int], whose negation overflows. *)
    let neg_digits b stop m =
      let m = ref m and p = ref stop in
      while !m <= -100 do
        let q = !m / 100 in
        let r = 2 * ((q * 100) - !m) in
        p := !p - 2;
        Bytes.unsafe_set b !p (String.unsafe_get pairs r);
        Bytes.unsafe_set b (!p + 1) (String.unsafe_get pairs (r + 1));
        m := q
      done;
      if !m <= -10 then begin
        let r = -2 * !m in
        p := !p - 2;
        Bytes.unsafe_set b !p (String.unsafe_get pairs r);
        Bytes.unsafe_set b (!p + 1) (String.unsafe_get pairs (r + 1))
      end
      else begin
        decr p;
        Bytes.unsafe_set b !p (Char.unsafe_chr (48 - !m))
      end;
      !p

    let int w n =
      if n >= 0 && n < 10 then Buffer.add_char w.buf (Char.unsafe_chr (48 + n))
      else begin
        let b = w.scratch in
        let stop = Bytes.length b in
        let p = neg_digits b stop (if n < 0 then n else -n) in
        let p = if n < 0 then (Bytes.unsafe_set b (p - 1) '-'; p - 1) else p in
        Buffer.add_subbytes w.buf b p (stop - p)
      end

    (* What [Printf.sprintf "%.17g"] calls once it has parsed its format
       (CamlinternalFormat.convert_float): C's [%.17g] of the double. *)
    external format_float : string -> float -> string = "caml_format_float"

    let two52 = 4503599627370496.0
    let two53 = 9007199254740992.0

    (* 10^0 .. 10^22, every one an exact double. *)
    let pow10 =
      [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11;
         1e12; 1e13; 1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

    (* C's [%.17g] of [x], 10^-6 <= |x| < 2^52, written into [memo_b];
       returns its length.  With [10^k <= |x| < 10^(k+1)] (so k is in
       [-6, 15]) and [p = 16 - k], [V = |x| * 10^p] lies in
       [10^16, 10^17) and is [hi + lo] exactly: [10^p] is exact, [hi] is
       the rounded product, an even integer since it is past 2^53, and
       the fma's [lo] is the rounding error, |lo| <= 8.  The 17 digits
       are [V] rounded half to even, as glibc rounds, decided by exact
       comparisons of [lo] with [floor lo + 0.5]. *)
    let exact w x =
      let a = Float.abs x in
      let k0 = Float.to_int (Float.floor (Float.log10 a)) in
      let k0 = if k0 < -6 then -6 else if k0 > 15 then 15 else k0 in
      (* The log10 estimate can miss by one next to a power of ten. *)
      let k =
        let t = pow10.(16 - k0) in
        let hi = a *. t in
        if hi < 1e16 || (hi = 1e16 && Float.fma a t (-.hi) < 0.0) then k0 - 1
        else if hi > 1e17 || (hi = 1e17 && Float.fma a t (-.hi) >= 0.0) then
          k0 + 1
        else k0
      in
      let t = pow10.(16 - k) in
      let hi = a *. t in
      let lo = Float.fma a t (-.hi) in
      let f = Float.floor lo in
      let half = f +. 0.5 in
      let fi = Float.to_int f in
      let r = if lo < half then fi else if lo > half then fi + 1 else fi + (fi land 1) in
      let n = Float.to_int hi + r in
      (* [V] rounded up to 10^17: the next decade, digits 1 then zeros. *)
      let carry = n >= 100_000_000_000_000_000 in
      let n = if carry then n / 10 else n in
      let k = if carry then k + 1 else k in
      let d = w.scratch and o = w.memo_b in
      ignore (neg_digits d 17 (-n));
      let nd = ref 17 in
      while Bytes.unsafe_get d (!nd - 1) = '0' do decr nd done;
      let nd = !nd in
      let p = if x < 0.0 then (Bytes.unsafe_set o 0 '-'; 1) else 0 in
      if k < -4 then begin
        (* d.ddde-0K: [%g] keeps fixed notation down to 10^-4 only. *)
        Bytes.unsafe_set o p (Bytes.unsafe_get d 0);
        let p = if nd > 1 then (Bytes.unsafe_set o (p + 1) '.'; p + 2) else p + 1 in
        Bytes.blit d 1 o p (nd - 1);
        let p = p + nd - 1 in
        Bytes.blit_string "e-0" 0 o p 3;
        Bytes.unsafe_set o (p + 3) (Char.unsafe_chr (48 - k));
        p + 4
      end
      else if k < 0 then begin
        (* "0." and -k-1 zeros before the digits. *)
        Bytes.blit_string "0.000" 0 o p (1 - k);
        Bytes.blit d 0 o (p + 1 - k) nd;
        p + 1 - k + nd
      end
      else if nd > k + 1 then begin
        Bytes.blit d 0 o p (k + 1);
        Bytes.unsafe_set o (p + k + 1) '.';
        Bytes.blit d (k + 1) o (p + k + 2) (nd - k - 1);
        p + nd + 1
      end
      else begin
        Bytes.blit d 0 o p (k + 1);
        p + k + 1
      end

    let primitive w x =
      let s = format_float "%.17g" x in
      Bytes.blit_string s 0 w.memo_b 0 (String.length s);
      String.length s

    (* An integral double below 2^53 in magnitude has at most 16 digits,
       so [%.17g] prints it in fixed notation without a fraction: its
       digits are the int's.  -0.0 prints as "-0" and keeps the general
       path.  The double nearest 1e-6 lies below 10^-6, so the exact
       path's lower bound is strict. *)
    let float17 w x =
      if
        Float.abs x < two53
        && Float.of_int (Float.to_int x) = x
        && not (x = 0.0 && Float.sign_bit x)
      then int w (Float.to_int x)
      else begin
        if
          not
            (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float w.memo.(0)))
        then begin
          w.memo.(0) <- x;
          let a = Float.abs x in
          w.memo_len <- (if a > 1e-6 && a < two52 then exact w x else primitive w x)
        end;
        Buffer.add_subbytes w.buf w.memo_b 0 w.memo_len
      end

    let float w x =
      if Float.is_nan x then Buffer.add_string w.buf "null"
      else if x = Float.infinity then Buffer.add_string w.buf "1e999"
      else if x = Float.neg_infinity then Buffer.add_string w.buf "-1e999"
      else float17 w x

    let string w s =
      let b = w.buf in
      Buffer.add_char b '"';
      for i = 0 to String.length s - 1 do
        match String.unsafe_get s i with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c
      done;
      Buffer.add_char b '"'

    let rec shares w first = function
      | [] -> ()
      | (j, share) :: rest ->
        if not first then Buffer.add_char w.buf ',';
        Buffer.add_char w.buf '[';
        int w j;
        Buffer.add_char w.buf ',';
        float w share;
        Buffer.add_char w.buf ']';
        shares w false rest

    let rec machines w first = function
      | [] -> ()
      | (m, sh) :: rest ->
        if not first then Buffer.add_char w.buf ',';
        Buffer.add_char w.buf '[';
        int w m;
        Buffer.add_string w.buf ",[";
        shares w true sh;
        Buffer.add_string w.buf "]]";
        machines w false rest

    let alloc w (a : alloc) =
      Buffer.add_char w.buf '[';
      machines w true a;
      Buffer.add_char w.buf ']'

    let kind_name = function
      | Arrival -> "arrival"
      | Completion -> "completion"
      | Boundary -> "boundary"
      | Failure -> "failure"
      | Recovery -> "recovery"

    let record w e =
      let b = w.buf in
      match e with
      | Run_start { scheduler; jobs; machines } ->
        Buffer.add_string b "{\"type\":\"run_start\",\"scheduler\":";
        string w scheduler;
        Buffer.add_string b ",\"jobs\":";
        int w jobs;
        Buffer.add_string b ",\"machines\":";
        int w machines;
        Buffer.add_char b '}'
      | Sim_event { time; kind; subject } ->
        Buffer.add_string b "{\"type\":\"event\",\"kind\":\"";
        Buffer.add_string b (kind_name kind);
        Buffer.add_string b "\",\"time\":";
        float w time;
        Buffer.add_string b ",\"subject\":";
        int w subject;
        Buffer.add_char b '}'
      | Replan { time; scheduler; allocation; horizon } ->
        Buffer.add_string b "{\"type\":\"replan\",\"time\":";
        float w time;
        Buffer.add_string b ",\"scheduler\":";
        string w scheduler;
        Buffer.add_string b ",\"alloc\":";
        alloc w allocation;
        Buffer.add_string b ",\"horizon\":";
        (match horizon with
         | None -> Buffer.add_string b "null"
         | Some h -> float w h);
        Buffer.add_char b '}'
      | Segment { start_time; end_time; shares } ->
        Buffer.add_string b "{\"type\":\"segment\",\"start\":";
        float w start_time;
        Buffer.add_string b ",\"end\":";
        float w end_time;
        Buffer.add_string b ",\"shares\":";
        alloc w shares;
        Buffer.add_char b '}'
      | Probe { pipeline; stretch; feasible } ->
        Buffer.add_string b "{\"type\":\"probe\",\"pipeline\":";
        string w pipeline;
        Buffer.add_string b ",\"stretch\":";
        float w stretch;
        Buffer.add_string b (if feasible then ",\"feasible\":true}" else ",\"feasible\":false}")
      | Span_closed { name; depth; start_s; dur_s } ->
        Buffer.add_string b "{\"type\":\"span\",\"name\":";
        string w name;
        Buffer.add_string b ",\"depth\":";
        int w depth;
        Buffer.add_string b ",\"start\":";
        float w start_s;
        Buffer.add_string b ",\"dur\":";
        float w dur_s;
        Buffer.add_char b '}'
      | Note { key; value } ->
        Buffer.add_string b "{\"type\":\"note\",\"key\":";
        string w key;
        Buffer.add_string b ",\"value\":";
        string w value;
        Buffer.add_char b '}'
      | Run_end { time; completed } ->
        Buffer.add_string b "{\"type\":\"run_end\",\"time\":";
        float w time;
        Buffer.add_string b ",\"completed\":";
        int w completed;
        Buffer.add_char b '}'

    let line w e =
      record w e;
      Buffer.add_char w.buf '\n'
  end

  let to_json e =
    let w = Writer.create () in
    Writer.record w e;
    Buffer.contents w.Writer.buf

  (* -- Reading: a cursor walks a line in the order [Writer.record]
     writes it, the type tag, then each key and value, with the writer's
     literals and separators.  A number or string is taken only when the
     writer prints the value read as exactly the bytes it was read from,
     so the writer's sentinels and escapes are the only ones accepted,
     and [of_json s = Some e] exactly when [s = to_json e]. -- *)

  let of_json s =
    let exception Reject in
    let n = String.length s and p = ref 0 and w = Writer.create () in
    let peek () = if !p < n then String.unsafe_get s !p else raise_notrace Reject in
    let at l = !p + String.length l <= n && String.sub s !p (String.length l) = l in
    let lit l = if at l then p := !p + String.length l else raise_notrace Reject in
    (* [v] was read from the bytes since [p0]; the writer must print it
       as exactly those bytes. *)
    let exact p0 emit v =
      let b = Writer.buffer w in
      Buffer.clear b;
      emit w v;
      if Buffer.contents b = String.sub s p0 (!p - p0) then v else raise_notrace Reject
    in
    let number parse emit =
      let p0 = !p in
      while !p < n && String.contains "0123456789+-.e" s.[!p] do incr p done;
      match parse (String.sub s p0 (!p - p0)) with
      | Some v -> exact p0 emit v
      | None -> raise_notrace Reject
    in
    (* Ints from their text, never through a float: a value past 2^53
       comes back exactly, and a fraction, an exponent, [null] or a
       value outside the int range is refused. *)
    let int () = number int_of_string_opt Writer.int in
    let null () = at "null" && (p := !p + 4; true) in
    let float () = if null () then Float.nan else number float_of_string_opt Writer.float in
    let bool () = if at "true" then (lit "true"; true) else (lit "false"; false) in
    let string () =
      let p0 = !p in
      lit "\"";
      let b = Buffer.create 16 in
      while peek () <> '"' do
        if peek () = '\\' then begin
          incr p;
          match peek () with
          | ('"' | '\\') as ch -> Buffer.add_char b ch
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' when !p + 4 < n ->
            (match int_of_string_opt ("0x" ^ String.sub s (!p + 1) 4) with
             | Some k when k >= 0 && k < 0x20 ->
               Buffer.add_char b (Char.chr k);
               p := !p + 4
             | _ -> raise_notrace Reject)
          | _ -> raise_notrace Reject
        end
        else Buffer.add_char b (peek ());
        incr p
      done;
      incr p;
      exact p0 Writer.string (Buffer.contents b)
    in
    (* [[item,item,...]], possibly empty. *)
    let list item =
      lit "[";
      if at "]" then (lit "]"; [])
      else begin
        let rec more acc =
          let acc = item () :: acc in
          if at "," then (lit ","; more acc) else (lit "]"; List.rev acc)
        in
        more []
      end
    in
    let pair first second () =
      lit "[";
      let a = first () in
      lit ",";
      let b = second () in
      lit "]";
      (a, b)
    in
    let alloc () = list (pair int (fun () -> list (pair int float))) in
    let kind () =
      let name = string () in
      match
        List.find_opt
          (fun k -> Writer.kind_name k = name)
          [ Arrival; Completion; Boundary; Failure; Recovery ]
      with
      | Some k -> k
      | None -> raise_notrace Reject
    in
    let field key read =
      lit (",\"" ^ key ^ "\":");
      read ()
    in
    let event () =
      lit "{\"type\":";
      match string () with
      | "run_start" ->
        let scheduler = field "scheduler" string in
        let jobs = field "jobs" int in
        let machines = field "machines" int in
        Run_start { scheduler; jobs; machines }
      | "event" ->
        let kind = field "kind" kind in
        let time = field "time" float in
        let subject = field "subject" int in
        Sim_event { time; kind; subject }
      | "replan" ->
        let time = field "time" float in
        let scheduler = field "scheduler" string in
        let allocation = field "alloc" alloc in
        let horizon = field "horizon" (fun () -> if null () then None else Some (float ())) in
        Replan { time; scheduler; allocation; horizon }
      | "segment" ->
        let start_time = field "start" float in
        let end_time = field "end" float in
        let shares = field "shares" alloc in
        Segment { start_time; end_time; shares }
      | "probe" ->
        let pipeline = field "pipeline" string in
        let stretch = field "stretch" float in
        let feasible = field "feasible" bool in
        Probe { pipeline; stretch; feasible }
      | "span" ->
        let name = field "name" string in
        let depth = field "depth" int in
        let start_s = field "start" float in
        let dur_s = field "dur" float in
        Span_closed { name; depth; start_s; dur_s }
      | "note" ->
        let key = field "key" string in
        let value = field "value" string in
        Note { key; value }
      | "run_end" ->
        let time = field "time" float in
        let completed = field "completed" int in
        Run_end { time; completed }
      | _ -> raise_notrace Reject
    in
    match event () with
    | e when at "}" && !p + 1 = n -> Some e
    | _ | (exception Reject) -> None

  let write_jsonl ~path events =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        let w = Writer.create () in
        List.iter
          (fun e ->
            Writer.line w e;
            if Buffer.length w.Writer.buf >= 65536 then begin
              Buffer.output_buffer oc w.Writer.buf;
              Buffer.clear w.Writer.buf
            end)
          events;
        Buffer.output_buffer oc w.Writer.buf)

  (* A malformed line is named by number, and a partial last record (no
     trailing newline — the signature of a write cut short by a crash)
     is called out as truncation rather than silently dropped. *)
  let read_jsonl_strict ~path =
    let contents = Fsio.read_file path in
    let n = String.length contents in
    if n = 0 then []
    else begin
      let complete = contents.[n - 1] = '\n' in
      let body = if complete then String.sub contents 0 (n - 1) else contents in
      let lines = String.split_on_char '\n' body in
      let total = List.length lines in
      let acc = ref [] in
      List.iteri
        (fun i line ->
          match of_json line with
          | Some e -> acc := e :: !acc
          | None ->
            if i = total - 1 && not complete then
              failwith
                (Printf.sprintf
                   "%s: truncated journal: partial record on last line %d \
                    (no trailing newline)"
                   path (i + 1))
            else
              failwith
                (Printf.sprintf "%s: malformed journal record at line %d" path
                   (i + 1)))
        lines;
      if not complete then
        (* The last line parsed even without its newline: the file was cut
           exactly at a record boundary minus the terminator.  Still a
           torn write — reject it, the caller must repair or truncate. *)
        failwith
          (Printf.sprintf
             "%s: truncated journal: missing trailing newline after line %d"
             path total);
      List.rev !acc
    end
end

(* ---- export: delta capture and cross-domain merge ----------------------- *)

module Export = struct
  type mark = {
    m_cells : int array;                     (* counter snapshot (copy) *)
    m_spans : (string * int * float) list;   (* span aggregates at start *)
    m_jpos : int;
  }

  type t = {
    e_counters : (string * int) list;        (* per-name deltas, sorted *)
    e_spans : (string * int * float) list;
    e_journal : Journal_t.event array;
  }

  let span_values () =
    List.sort compare
      (List.map
         (fun (s : Span.summary) -> (s.Span.name, s.Span.count, s.Span.total_s))
         (Span.summaries ()))

  let start () =
    let s = st () in
    { m_cells = Array.copy s.cells;
      m_spans = span_values ();
      m_jpos = s.jlen }

  let stop mark =
    let s = st () in
    let deltas =
      List.filter_map
        (fun (name, id) ->
          let now = cell s id in
          let before =
            if id < Array.length mark.m_cells then mark.m_cells.(id) else 0
          in
          if now = before then None else Some (name, now - before))
        (registered ())
      |> List.sort compare
    in
    let delta_spans =
      List.filter_map
        (fun (name, c, t) ->
          let bc, bt =
            match List.find_opt (fun (n, _, _) -> n = name) mark.m_spans with
            | Some (_, bc, bt) -> (bc, bt)
            | None -> (0, 0.0)
          in
          if c = bc && t = bt then None else Some (name, c - bc, t -. bt))
        (span_values ())
    in
    (* Clamp like {!Journal.since}: a mark invalidated by a mid-shard
       clear exports the retained suffix. *)
    let jpos = min (max mark.m_jpos 0) s.jlen in
    { e_counters = deltas;
      e_spans = delta_spans;
      e_journal = Array.sub s.jbuf jpos (s.jlen - jpos) }

  let merge e =
    let s = st () in
    List.iter
      (fun (name, d) ->
        let c = Counter.make name in
        Counter.add c d)
      e.e_counters;
    List.iter
      (fun (name, dc, dt) ->
        let a = Span.agg_of s name in
        a.s_count <- a.s_count + dc;
        a.s_total <- a.s_total +. dt)
      e.e_spans;
    Array.iter (fun ev -> journal_push s ev) e.e_journal

  let journal e = Array.to_list e.e_journal

  let counter e name = Option.value ~default:0 (List.assoc_opt name e.e_counters)
end
