(* Observability singleton: levels, counters, spans, event journal.

   Everything here is deliberately dependency-free (only [unix] for the
   clock) so that any layer of the system — numeric, flow, engine,
   experiments — can report through it without dependency cycles.

   Domain safety.  All mutable observability state (level, counter
   cells, span aggregates, journal buffer, streaming sink) is
   domain-local: each domain accumulates into its own copy, reached
   through one [Domain.DLS] slot, so hot-path increments never contend
   and never lose updates.  Only the name registries (counter name → id,
   polls, merge injectors, reset hooks) are process-global, guarded by a
   mutex; they are written during module initialization and rarely
   after.  A worker domain's accumulated state is folded back into its
   parent with {!Export} — deltas are captured around a unit of work and
   merged in whatever canonical order the caller fixes, which is how the
   parallel sweep engine keeps merged journals bit-identical to a
   sequential run. *)

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

(* ---- global registries ------------------------------------------------- *)

(* Registrations happen at module-initialization time in practice, but
   tests (and worker domains warming up lazily) may race them, so every
   access to the shared tables takes the lock.  None of these paths is
   hot: the hot path is [Counter.incr], which touches only domain-local
   cells. *)
let reg_mutex = Mutex.create ()

let locked f =
  Mutex.lock reg_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg_mutex) f

let reg_ids : (string, int) Hashtbl.t = Hashtbl.create 32
let reg_names : string array ref = ref (Array.make 32 "")
let reg_count = ref 0

let polls : (string, unit -> int) Hashtbl.t = Hashtbl.create 8
let poll_merges : (string, int -> unit) Hashtbl.t = Hashtbl.create 8
let reset_hooks : (unit -> unit) list ref = ref []

let register_poll name f = locked (fun () -> Hashtbl.replace polls name f)

let register_poll_merge name f =
  locked (fun () -> Hashtbl.replace poll_merges name f)

let register_reset f = locked (fun () -> reset_hooks := f :: !reset_hooks)

(* ---- counters ---------------------------------------------------------- *)

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

  let value c =
    let s = st () in
    if c.id < Array.length s.cells then s.cells.(c.id) else 0

  let reset c =
    let s = st () in
    if c.id < Array.length s.cells then s.cells.(c.id) <- 0

  let name c = c.name
end

(* Registered (name, id) pairs, sorted by name; snapshot under the lock. *)
let registered () =
  locked (fun () ->
      Hashtbl.fold (fun name id acc -> (name, id) :: acc) reg_ids [])

let poll_list () =
  locked (fun () -> Hashtbl.fold (fun name f acc -> (name, f) :: acc) polls [])

let counters () =
  let s = st () in
  let acc =
    List.map
      (fun (name, id) ->
        (name, if id < Array.length s.cells then s.cells.(id) else 0))
      (registered ())
  in
  let acc = List.fold_left (fun acc (name, f) -> (name, f ()) :: acc) acc (poll_list ()) in
  List.sort (fun (a, _) (b, _) -> String.compare a b) acc

let counter_value name =
  match locked (fun () -> Hashtbl.find_opt reg_ids name) with
  | Some id ->
    let s = st () in
    Some (if id < Array.length s.cells then s.cells.(id) else 0)
  | None ->
    Option.map (fun f -> f ()) (locked (fun () -> Hashtbl.find_opt polls name))

let reset_counters () =
  let s = st () in
  Array.fill s.cells 0 (Array.length s.cells) 0;
  List.iter (fun f -> f ()) (locked (fun () -> !reset_hooks))

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
    (* The memo pairs the last float sent to [format_float] with its
       digits, the float in an unboxed one-cell array (a mutable float
       field of this record would box on every store).  The initial pair
       (+0.0, "0") is consistent, and the int path intercepts +0.0
       before the memo is consulted. *)
    type t = { buf : Buffer.t; memo : float array; mutable memo_s : string }

    let create () = { buf = Buffer.create 256; memo = [| 0.0 |]; memo_s = "0" }
    let buffer w = w.buf

    (* Digits of [m <= 0], most significant first.  Working on the
       non-positive side covers [min_int], whose negation overflows. *)
    let rec neg_digits b m =
      if m <= -10 then neg_digits b (m / 10);
      Buffer.add_char b (Char.unsafe_chr (48 - (m mod 10)))

    let int w n =
      if n < 0 then begin
        Buffer.add_char w.buf '-';
        neg_digits w.buf n
      end
      else neg_digits w.buf (-n)

    (* What [Printf.sprintf "%.17g"] calls once it has parsed its format
       (CamlinternalFormat.convert_float): C's [%.17g] of the double. *)
    external format_float : string -> float -> string = "caml_format_float"

    let two53 = 9007199254740992.0

    (* An integral double below 2^53 in magnitude has at most 16 digits,
       so [%.17g] prints it in fixed notation without a fraction: its
       digits are the int's.  -0.0 prints as "-0" and keeps the general
       path. *)
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
          w.memo_s <- format_float "%.17g" x
        end;
        Buffer.add_string w.buf w.memo_s
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

  let kind_of_name = function
    | "arrival" -> Some Arrival
    | "completion" -> Some Completion
    | "boundary" -> Some Boundary
    | "failure" -> Some Failure
    | "recovery" -> Some Recovery
    | _ -> None

  let to_json e =
    let w = Writer.create () in
    Writer.record w e;
    Buffer.contents w.Writer.buf

  (* -- Minimal JSON reader, sufficient for lines [to_json] emits. -- *)

  type json =
    | Jnull
    | Jbool of bool
    | Jnum of float
    | Jstr of string
    | Jlist of json list
    | Jobj of (string * json) list

  exception Parse_error

  let parse_json (s : string) : json =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else raise Parse_error in
    let advance () = incr pos in
    let skip_ws () =
      while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        advance ()
      done
    in
    let expect c = if peek () <> c then raise Parse_error else advance () in
    let literal lit v =
      String.iter (fun c -> expect c) lit;
      v
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (match peek () with
           | '"' -> Buffer.add_char buf '"'; advance ()
           | '\\' -> Buffer.add_char buf '\\'; advance ()
           | '/' -> Buffer.add_char buf '/'; advance ()
           | 'n' -> Buffer.add_char buf '\n'; advance ()
           | 'r' -> Buffer.add_char buf '\r'; advance ()
           | 't' -> Buffer.add_char buf '\t'; advance ()
           | 'b' -> Buffer.add_char buf '\b'; advance ()
           | 'f' -> Buffer.add_char buf '\012'; advance ()
           | 'u' ->
             advance ();
             if !pos + 4 > n then raise Parse_error;
             let hex = String.sub s !pos 4 in
             pos := !pos + 4;
             let code =
               try int_of_string ("0x" ^ hex) with Failure _ -> raise Parse_error
             in
             (* Only ASCII escapes are ever emitted. *)
             if code < 0x80 then Buffer.add_char buf (Char.chr code)
             else raise Parse_error
           | _ -> raise Parse_error);
          go ()
        | c -> Buffer.add_char buf c; advance (); go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      while
        !pos < n
        && (match s.[!pos] with
            | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
            | _ -> false)
      do
        advance ()
      done;
      if !pos = start then raise Parse_error;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> raise Parse_error
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | 'n' -> literal "null" Jnull
      | 't' -> literal "true" (Jbool true)
      | 'f' -> literal "false" (Jbool false)
      | '"' -> Jstr (parse_string ())
      | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin advance (); Jlist [] end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          Jlist (List.rev !items)
        end
      | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin advance (); Jobj [] end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Jobj (List.rev !fields)
        end
      | _ -> parse_number () |> fun f -> Jnum f
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then raise Parse_error;
    v

  let jfield k = function Jobj fs -> List.assoc_opt k fs | _ -> None

  let jnum = function
    | Some (Jnum f) -> f
    | Some Jnull -> Float.nan
    | _ -> raise Parse_error

  let jint v = int_of_float (jnum v)
  let jstr = function Some (Jstr s) -> s | _ -> raise Parse_error
  let jbool = function Some (Jbool b) -> b | _ -> raise Parse_error

  let jalloc v : alloc =
    match v with
    | Some (Jlist machines) ->
      List.map
        (function
          | Jlist [ Jnum m; Jlist shares ] ->
            ( int_of_float m,
              List.map
                (function
                  | Jlist [ Jnum j; Jnum share ] -> (int_of_float j, share)
                  | _ -> raise Parse_error)
                shares )
          | _ -> raise Parse_error)
        machines
    | _ -> raise Parse_error

  let of_json line =
    match parse_json line with
    | exception Parse_error -> None
    | j ->
      (try
         match jfield "type" j with
         | Some (Jstr "run_start") ->
           Some
             (Run_start
                { scheduler = jstr (jfield "scheduler" j);
                  jobs = jint (jfield "jobs" j);
                  machines = jint (jfield "machines" j) })
         | Some (Jstr "event") ->
           (match kind_of_name (jstr (jfield "kind" j)) with
            | None -> None
            | Some kind ->
              Some
                (Sim_event
                   { time = jnum (jfield "time" j);
                     kind;
                     subject = jint (jfield "subject" j) }))
         | Some (Jstr "replan") ->
           Some
             (Replan
                { time = jnum (jfield "time" j);
                  scheduler = jstr (jfield "scheduler" j);
                  allocation = jalloc (jfield "alloc" j);
                  horizon =
                    (match jfield "horizon" j with
                     | Some Jnull | None -> None
                     | Some (Jnum h) -> Some h
                     | Some _ -> raise Parse_error) })
         | Some (Jstr "segment") ->
           Some
             (Segment
                { start_time = jnum (jfield "start" j);
                  end_time = jnum (jfield "end" j);
                  shares = jalloc (jfield "shares" j) })
         | Some (Jstr "probe") ->
           Some
             (Probe
                { pipeline = jstr (jfield "pipeline" j);
                  stretch = jnum (jfield "stretch" j);
                  feasible = jbool (jfield "feasible" j) })
         | Some (Jstr "span") ->
           Some
             (Span_closed
                { name = jstr (jfield "name" j);
                  depth = jint (jfield "depth" j);
                  start_s = jnum (jfield "start" j);
                  dur_s = jnum (jfield "dur" j) })
         | Some (Jstr "note") ->
           Some
             (Note
                { key = jstr (jfield "key" j); value = jstr (jfield "value" j) })
         | Some (Jstr "run_end") ->
           Some
             (Run_end
                { time = jnum (jfield "time" j);
                  completed = jint (jfield "completed" j) })
         | _ -> None
       with Parse_error | Not_found -> None)

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

  let read_jsonl ~path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let acc = ref [] in
        (try
           while true do
             let line = input_line ic in
             if String.trim line <> "" then
               match of_json line with
               | Some e -> acc := e :: !acc
               | None -> ()
           done
         with End_of_file -> ());
        List.rev !acc)

  (* The strict reader refuses what the lenient one skips: a malformed
     line is named by number, and a partial last record (no trailing
     newline — the signature of a write cut short by a crash) is called
     out as truncation rather than silently dropped.  Replay-grade
     integrity checks must use this path. *)
  let read_jsonl_strict ~path =
    let ic = open_in_bin path in
    let contents =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let n = String.length contents in
    let complete = n = 0 || contents.[n - 1] = '\n' in
    let body = if complete then String.sub contents 0 (max 0 (n - 1)) else contents in
    if body = "" then []
    else begin
      let lines = String.split_on_char '\n' body in
      let total = List.length lines in
      let acc = ref [] in
      List.iteri
        (fun i line ->
          if String.trim line <> "" then
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
                  (Printf.sprintf "%s: malformed journal record at line %d"
                     path (i + 1)))
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
    m_polls : (string * int) list;           (* polled gauges at start *)
    m_spans : (string * int * float) list;   (* span aggregates at start *)
    m_jpos : int;
  }

  type t = {
    e_counters : (string * int) list;        (* per-name deltas, sorted *)
    e_polls : (string * int) list;
    e_spans : (string * int * float) list;
    e_journal : Journal_t.event array;
  }

  let poll_values () =
    List.sort compare (List.map (fun (name, f) -> (name, f ())) (poll_list ()))

  let span_values () =
    List.sort compare
      (List.map
         (fun (s : Span.summary) -> (s.Span.name, s.Span.count, s.Span.total_s))
         (Span.summaries ()))

  let start () =
    let s = st () in
    { m_cells = Array.copy s.cells;
      m_polls = poll_values ();
      m_spans = span_values ();
      m_jpos = s.jlen }

  let stop mark =
    let s = st () in
    let deltas =
      List.filter_map
        (fun (name, id) ->
          let now = if id < Array.length s.cells then s.cells.(id) else 0 in
          let before =
            if id < Array.length mark.m_cells then mark.m_cells.(id) else 0
          in
          if now = before then None else Some (name, now - before))
        (registered ())
      |> List.sort compare
    in
    let delta_polls =
      List.filter_map
        (fun (name, v) ->
          let before =
            Option.value ~default:0 (List.assoc_opt name mark.m_polls)
          in
          if v = before then None else Some (name, v - before))
        (poll_values ())
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
      e_polls = delta_polls;
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
      (fun (name, d) ->
        match locked (fun () -> Hashtbl.find_opt poll_merges name) with
        | Some inject -> inject d
        | None -> ())
      e.e_polls;
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
