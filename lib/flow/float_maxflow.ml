(* Dinic's algorithm over doubles on flat arrays.  Edge slot e holds an
   edge, e lxor 1 its residual twin; each vertex's incident slots form a
   singly linked list through [next], newest first, which is the order
   of [Maxflow]'s [e :: adj.(src)].  Every comparison, bottleneck and sum
   is taken in the same order as [Maxflow.Make (Field.Float)], so the two
   return the same bits. *)

let c_augmentations = Gripps_obs.Obs.Counter.make "flow.augmentations"

(* [Field.Float.sign]: a residual capacity or a push counts only above
   this. *)
let eps = 1e-9

type t = {
  mutable n : int;
  mutable m : int;              (* edge slots in use *)
  mutable head : int array;     (* per vertex: newest incident slot, or -1 *)
  mutable next : int array;     (* per slot: next slot of the same tail *)
  mutable dst : int array;
  mutable cap : float array;    (* residual capacity *)
  mutable ocap : float array;   (* original capacity *)
  mutable level : int array;
  mutable queue : int array;
  mutable cur : int array;      (* current arc per vertex *)
  mutable path : int array;     (* slots of the path being grown *)
  mutable lim : float array;    (* lim.(k): bottleneck of path.(0 .. k-1) *)
}

let vertex_arrays g n =
  if n > Array.length g.head then begin
    let n = max n (2 * Array.length g.head) in
    g.head <- Array.make n (-1);
    g.level <- Array.make n 0;
    g.queue <- Array.make n 0;
    g.cur <- Array.make n 0;
    g.path <- Array.make n 0;
    g.lim <- Array.make (n + 1) 0.0
  end

let reset g ~n =
  vertex_arrays g n;
  Array.fill g.head 0 n (-1);
  g.n <- n;
  g.m <- 0

let create ~n =
  let g =
    { n = 0; m = 0; head = [||]; next = Array.make 16 0; dst = Array.make 16 0;
      cap = Array.make 16 0.0; ocap = Array.make 16 0.0; level = [||];
      queue = [||]; cur = [||]; path = [||]; lim = [||] }
  in
  reset g ~n;
  g

let check_vertex g ~fn ~role v =
  if v < 0 || v >= g.n then
    invalid_arg
      (Printf.sprintf "Float_maxflow.%s: %s vertex %d out of range [0, %d)" fn
         role v g.n)

let grow g =
  let size = 2 * Array.length g.dst in
  let extend a fill =
    let b = Array.make size fill in
    Array.blit a 0 b 0 g.m;
    b
  in
  g.next <- extend g.next 0;
  g.dst <- extend g.dst 0;
  g.cap <- extend g.cap 0.0;
  g.ocap <- extend g.ocap 0.0

let link g e ~src ~dst ~cap =
  g.dst.(e) <- dst;
  g.cap.(e) <- cap;
  g.ocap.(e) <- cap;
  g.next.(e) <- g.head.(src);
  g.head.(src) <- e

let add_edge g ~src ~dst ~cap =
  check_vertex g ~fn:"add_edge" ~role:"src" src;
  check_vertex g ~fn:"add_edge" ~role:"dst" dst;
  if cap < -.eps then invalid_arg "Float_maxflow.add_edge: negative capacity";
  if g.m + 2 > Array.length g.dst then grow g;
  let e = g.m in
  link g e ~src ~dst ~cap;
  link g (e + 1) ~src:dst ~dst:src ~cap:0.0;
  g.m <- e + 2;
  e

let flow_on g e = g.cap.(e lxor 1)

let bfs g ~source ~sink =
  let level = g.level and queue = g.queue in
  Array.fill level 0 g.n (-1);
  level.(source) <- 0;
  queue.(0) <- source;
  let qh = ref 0 and qt = ref 1 in
  while !qh < !qt do
    let u = queue.(!qh) in
    incr qh;
    let e = ref g.head.(u) in
    while !e >= 0 do
      let w = g.dst.(!e) in
      if level.(w) < 0 && g.cap.(!e) > eps then begin
        level.(w) <- level.(u) + 1;
        queue.(!qt) <- w;
        incr qt
      end;
      e := g.next.(!e)
    done
  done;
  level.(sink) >= 0

(* One augmenting path in the level graph, grown from the source along
   current arcs; returns the amount pushed, or 0 when none is left.  A
   dead end, or a path whose bottleneck is not above [eps], retreats one
   edge and moves that vertex's current arc past it, as the recursive
   search of [Maxflow] does when a child returns nothing. *)
let augment g ~source ~sink limit =
  let path = g.path and lim = g.lim and cur = g.cur in
  lim.(0) <- limit;
  let depth = ref 0 and u = ref source and pushed = ref (-1.0) in
  while !pushed < 0.0 do
    if !u = sink && lim.(!depth) > eps then begin
      let p = lim.(!depth) in
      for k = 0 to !depth - 1 do
        let e = path.(k) in
        g.cap.(e) <- g.cap.(e) -. p;
        g.cap.(e lxor 1) <- g.cap.(e lxor 1) +. p
      done;
      pushed := p
    end
    else if !u <> sink && cur.(!u) >= 0 then begin
      let e = cur.(!u) in
      let w = g.dst.(e) and c = g.cap.(e) in
      if c > eps && g.level.(w) = g.level.(!u) + 1 then begin
        path.(!depth) <- e;
        (* [Stdlib.min], written out so the floats stay unboxed. *)
        let l = lim.(!depth) in
        lim.(!depth + 1) <- (if l <= c then l else c);
        incr depth;
        u := w
      end
      else cur.(!u) <- g.next.(e)
    end
    else if !depth = 0 then pushed := 0.0
    else begin
      decr depth;
      let e = path.(!depth) in
      u := g.dst.(e lxor 1);
      cur.(!u) <- g.next.(e)
    end
  done;
  !pushed

let max_flow g ~source ~sink =
  check_vertex g ~fn:"max_flow" ~role:"source" source;
  check_vertex g ~fn:"max_flow" ~role:"sink" sink;
  if source = sink then invalid_arg "Float_maxflow.max_flow: source = sink";
  Array.blit g.ocap 0 g.cap 0 g.m;
  (* An upper bound on any single augmentation: the source's capacities
     summed in adjacency order. *)
  let limit = ref 0.0 and e = ref g.head.(source) in
  while !e >= 0 do
    limit := !limit +. g.ocap.(!e);
    e := g.next.(!e)
  done;
  let total = ref 0.0 and paths = ref 0 in
  while bfs g ~source ~sink do
    Array.blit g.head 0 g.cur 0 g.n;
    let continue = ref true in
    while !continue do
      let pushed = augment g ~source ~sink !limit in
      if pushed > eps then begin
        total := !total +. pushed;
        incr paths
      end
      else continue := false
    done
  done;
  Gripps_obs.Obs.Counter.add c_augmentations !paths;
  !total
