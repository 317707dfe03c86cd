type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
}

let create ~cmp = { cmp; data = [||]; size = 0 }
let length h = h.size
let is_empty h = h.size = 0

let grow h x =
  let cap = Array.length h.data in
  if h.size = cap then begin
    let ncap = if cap = 0 then 8 else 2 * cap in
    let nd = Array.make ncap x in
    Array.blit h.data 0 nd 0 h.size;
    h.data <- nd
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.cmp h.data.(i) h.data.(parent) < 0 then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && h.cmp h.data.(l) h.data.(!smallest) < 0 then smallest := l;
  if r < h.size && h.cmp h.data.(r) h.data.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(!smallest);
    h.data.(!smallest) <- tmp;
    sift_down h !smallest
  end

let push h x =
  grow h x;
  h.data.(h.size) <- x;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek h = if h.size = 0 then None else Some h.data.(0)

let peek_exn h =
  if h.size = 0 then invalid_arg "Heap.peek_exn: empty heap";
  h.data.(0)

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      sift_down h 0
    end;
    Some top
  end

let pop_exn h =
  match pop h with
  | Some x -> x
  | None -> invalid_arg "Heap.pop_exn: empty heap"

let clear h = h.size <- 0

let of_list ~cmp l =
  let h = create ~cmp in
  List.iter (push h) l;
  h

let to_sorted_list h =
  let copy = { h with data = Array.sub h.data 0 h.size } in
  let rec drain acc =
    match pop copy with
    | None -> List.rev acc
    | Some x -> drain (x :: acc)
  in
  drain []

(* ------------------------------------------------------------------ *)
(* Indexed heap: small-int elements with float keys, id tiebreak.      *)
(* ------------------------------------------------------------------ *)

module Indexed = struct
  type t = {
    keys : float array;  (* key per id; meaningful while pos.(id) >= 0 *)
    pos : int array;     (* heap slot of id, or -1 when absent *)
    heap : int array;    (* slots 0..size-1 hold member ids *)
    hkeys : float array; (* key per SLOT: hkeys.(i) = keys.(heap.(i)).
                            Sift comparisons read this column instead of
                            chasing [keys.(id)] through random ids — on a
                            deep heap the id-indexed reads are a cache
                            miss per comparison, and sibling slots
                            [2i+1]/[2i+2] share a line here.  Key values
                            are identical either way, so the comparison
                            sequence — and the drain order — is
                            unchanged. *)
    mutable size : int;
  }

  let create ~capacity =
    if capacity < 0 then invalid_arg "Heap.Indexed.create: negative capacity";
    { keys = Array.make capacity 0.0;
      pos = Array.make capacity (-1);
      heap = Array.make capacity 0;
      hkeys = Array.make capacity 0.0;
      size = 0 }

  let capacity h = Array.length h.pos
  let size h = h.size
  let is_empty h = h.size = 0

  let check h id name =
    if id < 0 || id >= Array.length h.pos then
      invalid_arg ("Heap.Indexed." ^ name ^ ": id out of range")

  let mem h id =
    check h id "mem";
    h.pos.(id) >= 0

  let key h id =
    check h id "key";
    if h.pos.(id) < 0 then invalid_arg "Heap.Indexed.key: absent id";
    h.keys.(id)

  (* Strict (key, id) lexicographic order: all members are distinct ids,
     so the induced total order is unique — the drain order of the heap
     is exactly the sorted order of its (key, id) pairs. *)
  let less h a b = h.keys.(a) < h.keys.(b) || (h.keys.(a) = h.keys.(b) && a < b)

  (* The same order read through the slot columns. *)
  let less_slot h i j =
    h.hkeys.(i) < h.hkeys.(j)
    || (h.hkeys.(i) = h.hkeys.(j) && h.heap.(i) < h.heap.(j))

  let swap h i j =
    let a = h.heap.(i) and b = h.heap.(j) in
    h.heap.(i) <- b;
    h.heap.(j) <- a;
    let k = h.hkeys.(i) in
    h.hkeys.(i) <- h.hkeys.(j);
    h.hkeys.(j) <- k;
    h.pos.(b) <- i;
    h.pos.(a) <- j

  let rec sift_up h i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if less_slot h i p then begin
        swap h i p;
        sift_up h p
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let s = ref i in
    if l < h.size && less_slot h l !s then s := l;
    if r < h.size && less_slot h r !s then s := r;
    if !s <> i then begin
      swap h i !s;
      sift_down h !s
    end

  (* Append id (whose key is staged in [keys]) at the bottom and restore
     the heap property. *)
  let append h id =
    h.heap.(h.size) <- id;
    h.hkeys.(h.size) <- h.keys.(id);
    h.pos.(id) <- h.size;
    h.size <- h.size + 1;
    sift_up h (h.size - 1)

  let add h id k =
    check h id "add";
    if h.pos.(id) >= 0 then invalid_arg "Heap.Indexed.add: id already present";
    h.keys.(id) <- k;
    append h id

  let update h id k =
    check h id "update";
    let i = h.pos.(id) in
    if i < 0 then invalid_arg "Heap.Indexed.update: absent id";
    h.keys.(id) <- k;
    h.hkeys.(i) <- k;
    sift_up h i;
    sift_down h h.pos.(id)

  let remove h id =
    check h id "remove";
    let i = h.pos.(id) in
    if i < 0 then invalid_arg "Heap.Indexed.remove: absent id";
    let last = h.size - 1 in
    h.size <- last;
    h.pos.(id) <- -1;
    if i <> last then begin
      let moved = h.heap.(last) in
      h.heap.(i) <- moved;
      h.hkeys.(i) <- h.hkeys.(last);
      h.pos.(moved) <- i;
      sift_up h i;
      sift_down h h.pos.(moved)
    end

  (* Allocation-free key passing.  In native code (no flambda) a [float]
     argument or result of a non-inlined call is boxed at the boundary,
     so [add]/[update]/[key] each cost one minor-heap box per call.  The
     [_keyed] variants instead read the key from the [keys] column, and
     [put_key]/[get_key] are single array accesses — small enough that
     the compiler inlines them, keeping the float unboxed end to end. *)

  let put_key h id k = h.keys.(id) <- k

  let get_key h id = h.keys.(id)

  let add_keyed h id =
    check h id "add_keyed";
    if h.pos.(id) >= 0 then
      invalid_arg "Heap.Indexed.add_keyed: id already present";
    append h id

  let update_keyed h id =
    check h id "update_keyed";
    let i = h.pos.(id) in
    if i < 0 then invalid_arg "Heap.Indexed.update_keyed: absent id";
    h.hkeys.(i) <- h.keys.(id);
    sift_up h i;
    sift_down h h.pos.(id)

  (* Read-only slot views.  The array layout is a binary min-heap: slot 0
     is the minimum (what the rule engine's walk reads) and the children
     of slot [i] are [2i+1]/[2i+2].  One-liners so they inline:
     [slot_key] then reads an unboxed float. *)
  let slot_count h = h.size
  let slot_id h i = h.heap.(i)
  let slot_key h i = h.hkeys.(i)

  let min_elt h = if h.size = 0 then None else Some h.heap.(0)

  let min_exn h =
    if h.size = 0 then invalid_arg "Heap.Indexed.min_exn: empty heap";
    h.heap.(0)

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.heap.(0) in
      remove h top;
      Some top
    end

  let pop_exn h =
    match pop h with
    | Some x -> x
    | None -> invalid_arg "Heap.Indexed.pop_exn: empty heap"

  let clear h =
    for i = 0 to h.size - 1 do
      h.pos.(h.heap.(i)) <- -1
    done;
    h.size <- 0

  let to_sorted_list h =
    let ids = Array.sub h.heap 0 h.size in
    Array.sort (fun a b -> if less h a b then -1 else if less h b a then 1 else 0) ids;
    Array.to_list ids
end
