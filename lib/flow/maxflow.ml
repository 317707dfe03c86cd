(* Dinic's algorithm over an arbitrary ordered field.  Edges are stored in
   a flat array with the residual twin of edge e at index (e lxor 1); each
   vertex keeps the list of incident edge indices.

   Warm starts: the graph retains its residual state between runs, so a
   caller that only perturbs a few capacities ([update_capacity]) can ask
   [max_flow ~warm:true] to resume augmenting from the previous flow
   instead of re-running Dinic from zero. *)

(* Fleet-wide augmentation counter (all field instantiations and
   [Float_maxflow], all graphs): the per-graph [augmentations] below
   drives warm-start accounting, this one feeds the shared observability
   registry. *)
let c_augmentations = Gripps_obs.Obs.Counter.make "flow.augmentations"

module Make (F : Gripps_numeric.Field.ORDERED_FIELD) = struct
  module Vec = struct
    include Gripps_collections.Vec

    let size = length
  end

  type t = {
    n : int;
    adj : int list array;  (* edge indices leaving each vertex, reversed *)
    dst : int Vec.t;
    cap : F.t Vec.t;   (* residual capacity *)
    ocap : F.t Vec.t;  (* original capacity *)
    mutable level : int array;
    mutable iter : int list array;
    mutable augmentations : int;
  }

  let create ~n =
    { n; adj = Array.make n []; dst = Vec.create (); cap = Vec.create ();
      ocap = Vec.create (); level = [||]; iter = [||]; augmentations = 0 }

  let num_vertices g = g.n
  let augmentations g = g.augmentations

  let check_vertex g ~fn ~role v =
    if v < 0 || v >= g.n then
      invalid_arg
        (Printf.sprintf "Maxflow.%s: %s vertex %d out of range [0, %d)" fn role
           v g.n)

  let add_edge g ~src ~dst ~cap =
    check_vertex g ~fn:"add_edge" ~role:"src" src;
    check_vertex g ~fn:"add_edge" ~role:"dst" dst;
    if F.sign cap < 0 then invalid_arg "Maxflow.add_edge: negative capacity";
    let e = Vec.size g.dst in
    Vec.push g.dst dst;
    Vec.push g.cap cap;
    Vec.push g.ocap cap;
    g.adj.(src) <- e :: g.adj.(src);
    Vec.push g.dst src;
    Vec.push g.cap F.zero;
    Vec.push g.ocap F.zero;
    g.adj.(dst) <- (e + 1) :: g.adj.(dst);
    e

  let check_edge g ~fn e =
    if e < 0 || e >= Vec.size g.dst then
      invalid_arg
        (Printf.sprintf "Maxflow.%s: edge handle %d out of range [0, %d)" fn e
           (Vec.size g.dst));
    if e land 1 = 1 then
      invalid_arg
        (Printf.sprintf
           "Maxflow.%s: %d is a residual twin, not an edge handle" fn e)

  let set_capacity g e cap =
    check_edge g ~fn:"set_capacity" e;
    if F.sign cap < 0 then invalid_arg "Maxflow.set_capacity: negative capacity";
    Vec.set g.cap e cap;
    Vec.set g.ocap e cap;
    Vec.set g.cap (e lxor 1) F.zero;
    Vec.set g.ocap (e lxor 1) F.zero

  let reset_flows g =
    for e = 0 to Vec.size g.cap - 1 do
      Vec.set g.cap e (Vec.get g.ocap e)
    done

  let flow_on g e = Vec.get g.cap (e lxor 1)
  let capacity_on g e = Vec.get g.ocap e

  let flow_value g ~source =
    (* Net flow leaving [source]: flow on original edges out of it, minus
       flow on original edges into it (seen here as residual twins). *)
    List.fold_left
      (fun acc e ->
        if e land 1 = 0 then F.add acc (flow_on g e)
        else F.sub acc (Vec.get g.cap e))
      F.zero g.adj.(source)

  let bfs g ~source ~sink =
    let level = Array.make g.n (-1) in
    level.(source) <- 0;
    let q = Queue.create () in
    Queue.push source q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun e ->
          let w = Vec.get g.dst e in
          if level.(w) < 0 && F.sign (Vec.get g.cap e) > 0 then begin
            level.(w) <- level.(u) + 1;
            Queue.push w q
          end)
        g.adj.(u)
    done;
    g.level <- level;
    level.(sink) >= 0

  (* Find an augmenting path in the level graph and push [limit] along it. *)
  let rec dfs g u ~sink limit =
    if u = sink then limit
    else begin
      let rec try_edges () =
        match g.iter.(u) with
        | [] -> F.zero
        | e :: rest ->
          let w = Vec.get g.dst e in
          let c = Vec.get g.cap e in
          if F.sign c > 0 && g.level.(w) = g.level.(u) + 1 then begin
            let pushed = dfs g w ~sink (F.min limit c) in
            if F.sign pushed > 0 then begin
              Vec.set g.cap e (F.sub (Vec.get g.cap e) pushed);
              Vec.set g.cap (e lxor 1) (F.add (Vec.get g.cap (e lxor 1)) pushed);
              pushed
            end
            else begin
              g.iter.(u) <- rest;
              try_edges ()
            end
          end
          else begin
            g.iter.(u) <- rest;
            try_edges ()
          end
      in
      try_edges ()
    end

  let max_flow ?(warm = false) g ~source ~sink =
    if source = sink then invalid_arg "Maxflow.max_flow: source = sink";
    if not warm then reset_flows g;
    let total = ref (if warm then flow_value g ~source else F.zero) in
    (* An upper bound on any single augmentation: sum of source capacities. *)
    let limit =
      List.fold_left (fun acc e -> F.add acc (Vec.get g.ocap e)) F.zero g.adj.(source)
    in
    while bfs g ~source ~sink do
      g.iter <- Array.copy g.adj;
      let continue = ref true in
      while !continue do
        let pushed = dfs g source ~sink limit in
        if F.sign pushed > 0 then begin
          total := F.add !total pushed;
          g.augmentations <- g.augmentations + 1;
          Gripps_obs.Obs.Counter.incr c_augmentations
        end
        else continue := false
      done
    done;
    !total

  (* One bounded augmentation pass over the raw residual graph (no level
     structure: these repair walks move tiny amounts between two fixed
     vertices, so plain DFS is cheaper than Dinic's phases). *)
  let augment_limited g ~src ~dst ~limit =
    if src = dst then limit
    else begin
      let total = ref F.zero in
      let continue = ref true in
      while !continue && F.sign (F.sub limit !total) > 0 do
        let visited = Array.make g.n false in
        let rec walk u lim =
          if u = dst then lim
          else begin
            visited.(u) <- true;
            let rec try_edges = function
              | [] -> F.zero
              | e :: rest ->
                let w = Vec.get g.dst e in
                let c = Vec.get g.cap e in
                if (not visited.(w)) && F.sign c > 0 then begin
                  let pushed = walk w (F.min lim c) in
                  if F.sign pushed > 0 then begin
                    Vec.set g.cap e (F.sub (Vec.get g.cap e) pushed);
                    Vec.set g.cap (e lxor 1)
                      (F.add (Vec.get g.cap (e lxor 1)) pushed);
                    pushed
                  end
                  else try_edges rest
                end
                else try_edges rest
            in
            try_edges g.adj.(u)
          end
        in
        let pushed = walk src (F.sub limit !total) in
        if F.sign pushed > 0 then begin
          total := F.add !total pushed;
          g.augmentations <- g.augmentations + 1;
          Gripps_obs.Obs.Counter.incr c_augmentations
        end
        else continue := false
      done;
      !total
    end

  let update_capacity g ~source ~sink e cap =
    check_edge g ~fn:"update_capacity" e;
    if F.sign cap < 0 then
      invalid_arg "Maxflow.update_capacity: negative capacity";
    let f = flow_on g e in
    Vec.set g.ocap e cap;
    if F.compare f cap <= 0 then
      (* The current flow still fits: just adjust the residual headroom. *)
      Vec.set g.cap e (F.sub cap f)
    else begin
      (* The flow exceeds the new capacity.  Clamp it to [cap]; this
         strands [excess] units of inflow at the edge's tail u and starves
         its head v by the same amount.  Repair the imbalance entirely
         inside the residual network:
           1. reroute u -> v along other residual paths (flow value kept);
           2. any remainder is cancelled back — u's surplus to [source]
              and v's deficit from [sink] — shrinking the flow value.
         Flow decomposition guarantees step 2 always completes: surplus
         not reroutable to v must have arrived from the source side, and
         symmetrically for v's missing inflow. *)
      let excess = F.sub f cap in
      Vec.set g.cap e F.zero;
      Vec.set g.cap (e lxor 1) cap;
      let u = Vec.get g.dst (e lxor 1) in
      let v = Vec.get g.dst e in
      let moved = augment_limited g ~src:u ~dst:v ~limit:excess in
      let rest = F.sub excess moved in
      if F.sign rest > 0 then begin
        if u <> source && u <> sink then begin
          let cancelled = augment_limited g ~src:u ~dst:source ~limit:rest in
          if F.sign (F.sub rest cancelled) <> 0 then
            failwith "Maxflow.update_capacity: could not cancel tail surplus"
        end;
        if v <> source && v <> sink then begin
          let refilled = augment_limited g ~src:sink ~dst:v ~limit:rest in
          if F.sign (F.sub rest refilled) <> 0 then
            failwith "Maxflow.update_capacity: could not cancel head deficit"
        end
      end
    end

  let scale_capacities g k =
    if F.sign k <= 0 then
      invalid_arg "Maxflow.scale_capacities: scale must be positive";
    for e = 0 to Vec.size g.cap - 1 do
      Vec.set g.cap e (F.mul (Vec.get g.cap e) k);
      Vec.set g.ocap e (F.mul (Vec.get g.ocap e) k)
    done

  let min_cut g ~source =
    let reachable = Array.make g.n false in
    reachable.(source) <- true;
    let q = Queue.create () in
    Queue.push source q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun e ->
          let w = Vec.get g.dst e in
          if (not reachable.(w)) && F.sign (Vec.get g.cap e) > 0 then begin
            reachable.(w) <- true;
            Queue.push w q
          end)
        g.adj.(u)
    done;
    reachable
  end
