(* Span store of the traced run.  Each span has a name, a start, an end,
   a parent and a run id, held in arrays sized up front so recording
   allocates nothing.  Calls too frequent to record one by one (a
   scheduler callback fires at every simulation event) are charged to
   the innermost open span as aggregated leaf time instead. *)

type t = {
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  name : int array;
  start : int array;
  stop : int array;
  parent : int array;
  run : int array;
  leaf : int array;
  mutable len : int;
  mutable cur : int;
  mutable run_id : int;
}

let create ~capacity =
  { ids = Hashtbl.create 64; names = [||];
    name = Array.make capacity 0; start = Array.make capacity 0;
    stop = Array.make capacity 0; parent = Array.make capacity (-1);
    run = Array.make capacity 0; leaf = Array.make capacity 0;
    len = 0; cur = -1; run_id = 0 }

let intern t s =
  match Hashtbl.find_opt t.ids s with
  | Some id -> id
  | None ->
    let id = Array.length t.names in
    Hashtbl.add t.ids s id;
    t.names <- Array.append t.names [| s |];
    id

let new_run t = t.run_id <- t.run_id + 1

let enter t id =
  let i = t.len in
  if i = Array.length t.name then failwith "Spans.enter: capacity exhausted";
  t.len <- i + 1;
  t.name.(i) <- id;
  t.parent.(i) <- t.cur;
  t.run.(i) <- t.run_id;
  t.leaf.(i) <- 0;
  t.cur <- i;
  t.start.(i) <- Clock.now_ns ();
  i

let leave t i =
  t.stop.(i) <- Clock.now_ns ();
  t.cur <- t.parent.(i)

let with_ t name f =
  let i = enter t (intern t name) in
  match f () with
  | v -> leave t i; v
  | exception e -> leave t i; raise e

let[@inline] charge t ns = if t.cur >= 0 then t.leaf.(t.cur) <- t.leaf.(t.cur) + ns

let name t i = t.names.(t.name.(i))
let duration t i = t.stop.(i) - t.start.(i)

(* Length of the union of the intervals, clipped to [lo, hi). *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, last) (a, b) ->
        match last with
        | Some (la, lb) when a <= lb -> (total, Some (la, max lb b))
        | Some (la, lb) -> (total + (lb - la), Some (a, b))
        | None -> (total, Some (a, b)))
      (0, None) clipped
  in
  match last with Some (a, b) -> total + (b - a) | None -> total

let self_ns ~start ~stop children = stop - start - covered ~lo:start ~hi:stop children

let children t =
  let kids = Array.make t.len [] in
  for i = t.len - 1 downto 0 do
    let p = t.parent.(i) in
    if p >= 0 then kids.(p) <- i :: kids.(p)
  done;
  kids

let intervals t = List.map (fun c -> (t.start.(c), t.stop.(c)))

let self t kids i =
  self_ns ~start:t.start.(i) ~stop:t.stop.(i) (intervals t kids.(i)) - t.leaf.(i)

(* Share of a span's duration covered by its direct children. *)
let coverage t kids i =
  let d = duration t i in
  if d <= 0 then 1.0
  else
    float_of_int (covered ~lo:t.start.(i) ~hi:t.stop.(i) (intervals t kids.(i)))
    /. float_of_int d

let fold_named t s f init =
  match Hashtbl.find_opt t.ids s with
  | None -> init
  | Some id ->
    let acc = ref init in
    for i = 0 to t.len - 1 do
      if t.name.(i) = id then acc := f !acc i
    done;
    !acc

let total_ns t s = fold_named t s (fun acc i -> acc + duration t i) 0

let self_total_ns t kids s = fold_named t s (fun acc i -> acc + self t kids i) 0

let write_jsonl t ~path =
  let kids = children t in
  let oc = open_out path in
  for i = 0 to t.len - 1 do
    Printf.fprintf oc
      "{\"run\": %d, \"id\": %d, \"parent\": %d, \"name\": %S, \"start_ns\": %d, \
       \"end_ns\": %d, \"self_ns\": %d}\n"
      t.run.(i) i t.parent.(i) (name t i) t.start.(i) t.stop.(i) (self t kids i)
  done;
  close_out oc
