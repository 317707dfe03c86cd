module Splitmix = Gripps_rng.Splitmix
module Dist = Gripps_rng.Dist

type item = { release : float; size : float; databank : int }

(* The clock and the lookahead item's fields live in a float array (plus
   an int cell) rather than in [mutable float] record fields or a cached
   [item option]: stores into mutable float fields of a mixed record box,
   and a cached option allocates per item.  The scalar accessors below
   ([next_release]/[next_size]/[next_databank]/[drop]) are the only
   read path, and allocate nothing. *)
type t = {
  mutable cursor : int;        (* items consumed *)
  cells : float array;         (* 0 = clock (release of the last consumed
                                  item); 1 = lookahead release;
                                  2 = lookahead size *)
  mutable la_db : int;         (* lookahead databank *)
  mutable la : int;            (* 0 = lookahead empty, 1 = filled,
                                  2 = stream exhausted *)
  fill : t -> bool;            (* write the next item into the lookahead
                                  cells; false at end of stream *)
  mutable chan : in_channel option;
  mutable line_no : int;       (* line-protocol bookkeeping *)
  name : string;
}

let cursor s = s.cursor
let clock s = s.cells.(0)

let close s =
  match s.chan with
  | Some ic ->
    s.chan <- None;
    close_in_noerr ic
  | None -> ()

let ensure s = if s.la = 0 then s.la <- (if s.fill s then 1 else 2)

let exhausted s =
  ensure s;
  s.la = 2

let next_release s =
  ensure s;
  if s.la = 1 then s.cells.(1) else infinity

let next_size s =
  ensure s;
  if s.la <> 1 then invalid_arg "Source.next_size: exhausted stream";
  s.cells.(2)

let next_databank s =
  ensure s;
  if s.la <> 1 then invalid_arg "Source.next_databank: exhausted stream";
  s.la_db

let drop s =
  ensure s;
  if s.la <> 1 then invalid_arg "Source.drop: exhausted stream";
  s.la <- 0;
  s.cursor <- s.cursor + 1;
  s.cells.(0) <- s.cells.(1)

let skip_items n s =
  for _ = 1 to n do
    if exhausted s then
      failwith
        (Printf.sprintf "%s: resume skip overruns the stream (cursor %d)"
           s.name n);
    drop s
  done

(* ---- line protocol ----------------------------------------------------- *)

let parse_line line =
  let body =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  match
    String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) body)
    |> List.filter (fun f -> f <> "")
  with
  | [] -> Ok None
  | [ r; w; d ] ->
    (match (float_of_string_opt r, float_of_string_opt w, int_of_string_opt d) with
     | Some release, Some size, Some databank ->
       if not (Float.is_finite release && release >= 0.0) then
         Error "release date not finite and >= 0"
       else if not (Float.is_finite size && size > 0.0) then
         Error "size not finite and > 0"
       else if databank < 0 then Error "negative databank index"
       else Ok (Some { release; size; databank })
     | None, _, _ -> Error "unparsable release date"
     | _, None, _ -> Error "unparsable size"
     | _, _, None -> Error "unparsable databank index")
  | fields ->
    Error
      (Printf.sprintf "expected 3 fields <release> <size> <databank>, got %d"
         (List.length fields))

let fill_lines s =
  match s.chan with
  | None -> false
  | Some ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file ->
        close s;
        false
      | line ->
        s.line_no <- s.line_no + 1;
        (match parse_line line with
         | Ok None -> go ()
         | Ok (Some it) ->
           (* [fill] only runs with an empty lookahead, so [clock] is the
              release frontier of everything produced so far. *)
           if it.release < s.cells.(0) then
             failwith
               (Printf.sprintf
                  "%s: line %d: release date %g before previous %g (the \
                   protocol streams in non-decreasing release order)"
                  s.name s.line_no it.release s.cells.(0));
           s.cells.(1) <- it.release;
           s.cells.(2) <- it.size;
           s.la_db <- it.databank;
           true
         | Error reason ->
           failwith (Printf.sprintf "%s: line %d: %s" s.name s.line_no reason))
    in
    go ()

let make ~clock ~fill ~chan ~name =
  { cursor = 0; cells = [| clock; 0.0; 0.0 |]; la_db = 0; la = 0; fill;
    chan; line_no = 0; name }

let of_channel ?(skip = 0) ~name ic =
  let s = make ~clock:0.0 ~fill:fill_lines ~chan:(Some ic) ~name in
  skip_items skip s;
  s.cursor <- skip;  (* the skipped prefix is the restored cursor *)
  s

let of_file ?skip path = of_channel ?skip ~name:path (open_in path)

let of_list ?(skip = 0) items =
  let rec check = function
    | a :: (b :: _ as rest) ->
      if b.release < a.release then
        invalid_arg "Source.of_list: decreasing release dates";
      check rest
    | [ _ ] | [] -> ()
  in
  check items;
  let remaining = ref items in
  let fill s =
    match !remaining with
    | [] -> false
    | it :: rest ->
      remaining := rest;
      s.cells.(1) <- it.release;
      s.cells.(2) <- it.size;
      s.la_db <- it.databank;
      true
  in
  let s = make ~clock:0.0 ~fill ~chan:None ~name:"<list>" in
  skip_items skip s;
  s.cursor <- skip;
  s

(* ---- open-loop Poisson driver ------------------------------------------ *)

(* Item [k] draws its gap, size and databank from derived stream [k]; the
   release date is the running sum of gaps, carried in [clock] — which is
   why [(cursor, clock)] is a complete resume point. *)
let poisson ~seed ~rate ~sizes ~jobs ?(cursor = 0) ?(clock = 0.0) () =
  if not (rate > 0.0 && rate < infinity) then
    invalid_arg "Source.poisson: rate must be finite and positive";
  if jobs <= 0 then invalid_arg "Source.poisson: jobs must be positive";
  if Array.length sizes = 0 then invalid_arg "Source.poisson: empty size table";
  if cursor < 0 || cursor > jobs then invalid_arg "Source.poisson: bad cursor";
  let base = Splitmix.create seed in
  (* One scratch generator reseeded in place per item: deriving stream
     [cursor] with [Splitmix.stream] would allocate a generator per job. *)
  let rng = Splitmix.create 0 in
  (* [fill] only runs with an empty lookahead, so every earlier item has
     been consumed: the next index is exactly [cursor] and [clock] is the
     previous release. *)
  let fill s =
    if s.cursor >= jobs then false
    else begin
      Splitmix.restream base s.cursor rng;
      let gap = Dist.exponential rng ~rate in
      let db = Splitmix.int rng (Array.length sizes) in
      s.cells.(1) <- s.cells.(0) +. gap;
      s.cells.(2) <- sizes.(db);
      s.la_db <- db;
      true
    end
  in
  let s = make ~clock ~fill ~chan:None ~name:"<poisson>" in
  s.cursor <- cursor;
  s
