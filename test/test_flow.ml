(* Flow solvers: classic instances with known values, min-cut validity,
   exact rational flows, min-cost flow vs LP cross-check, and random
   bipartite transportation instances compared against the simplex. *)

module Q = Gripps_numeric.Rat
module FMax = Gripps_flow.Maxflow.Make (Gripps_numeric.Field.Float)
module QMax = Gripps_flow.Maxflow.Make (Gripps_numeric.Rat)
module FMcmf = Gripps_flow.Mcmf.Make (Gripps_numeric.Field.Float)
module QMcmf = Gripps_flow.Mcmf.Make (Gripps_numeric.Rat)
module FS = Gripps_lp.Simplex.Make (Gripps_numeric.Field.Float)

let checkf msg expected actual = Alcotest.(check (float 1e-7)) msg expected actual

let test_maxflow_classic () =
  (* CLRS figure: max flow 23. *)
  let g = FMax.create ~n:6 in
  let s = 0 and t = 5 in
  let edges =
    [ (0, 1, 16.0); (0, 2, 13.0); (1, 2, 10.0); (2, 1, 4.0); (1, 3, 12.0);
      (3, 2, 9.0); (2, 4, 14.0); (4, 3, 7.0); (3, 5, 20.0); (4, 5, 4.0) ]
  in
  List.iter (fun (u, v, c) -> ignore (FMax.add_edge g ~src:u ~dst:v ~cap:c)) edges;
  checkf "CLRS max flow" 23.0 (FMax.max_flow g ~source:s ~sink:t)

let test_maxflow_disconnected () =
  let g = FMax.create ~n:3 in
  ignore (FMax.add_edge g ~src:0 ~dst:1 ~cap:5.0);
  checkf "no path" 0.0 (FMax.max_flow g ~source:0 ~sink:2)

let test_maxflow_flow_conservation () =
  let g = FMax.create ~n:4 in
  let e1 = FMax.add_edge g ~src:0 ~dst:1 ~cap:3.0 in
  let e2 = FMax.add_edge g ~src:0 ~dst:2 ~cap:2.0 in
  let e3 = FMax.add_edge g ~src:1 ~dst:3 ~cap:2.0 in
  let e4 = FMax.add_edge g ~src:2 ~dst:3 ~cap:3.0 in
  let f = FMax.max_flow g ~source:0 ~sink:3 in
  checkf "value" 4.0 f;
  checkf "conservation at 1" (FMax.flow_on g e1) (FMax.flow_on g e3);
  checkf "conservation at 2" (FMax.flow_on g e2) (FMax.flow_on g e4);
  checkf "out of source" f (FMax.flow_on g e1 +. FMax.flow_on g e2)

let test_mincut () =
  let g = FMax.create ~n:4 in
  ignore (FMax.add_edge g ~src:0 ~dst:1 ~cap:1.0);
  ignore (FMax.add_edge g ~src:1 ~dst:2 ~cap:10.0);
  ignore (FMax.add_edge g ~src:2 ~dst:3 ~cap:5.0);
  let f = FMax.max_flow g ~source:0 ~sink:3 in
  checkf "flow" 1.0 f;
  let cut = FMax.min_cut g ~source:0 in
  Alcotest.(check bool) "source side" true cut.(0);
  Alcotest.(check bool) "bottleneck separates" false cut.(1);
  Alcotest.(check bool) "sink side" false cut.(3)

let test_maxflow_exact_rational () =
  let q = Q.of_ints in
  let g = QMax.create ~n:3 in
  ignore (QMax.add_edge g ~src:0 ~dst:1 ~cap:(q 1 3));
  ignore (QMax.add_edge g ~src:1 ~dst:2 ~cap:(q 1 7));
  let f = QMax.max_flow g ~source:0 ~sink:2 in
  Alcotest.(check string) "exact bottleneck" "1/7" (Q.to_string f)

let test_maxflow_recompute_after_update () =
  let g = FMax.create ~n:2 in
  let e = FMax.add_edge g ~src:0 ~dst:1 ~cap:1.0 in
  checkf "first run" 1.0 (FMax.max_flow g ~source:0 ~sink:1);
  FMax.set_capacity g e 5.0;
  checkf "after update" 5.0 (FMax.max_flow g ~source:0 ~sink:1);
  checkf "idempotent rerun" 5.0 (FMax.max_flow g ~source:0 ~sink:1)

let test_mcmf_prefers_cheap_path () =
  (* Two parallel 2-hop paths; cheap one has capacity 1, flow 2 required. *)
  let g = FMcmf.create ~n:4 in
  ignore (FMcmf.add_edge g ~src:0 ~dst:1 ~cap:1.0 ~cost:1.0);
  ignore (FMcmf.add_edge g ~src:0 ~dst:2 ~cap:2.0 ~cost:5.0);
  ignore (FMcmf.add_edge g ~src:1 ~dst:3 ~cap:2.0 ~cost:0.0);
  ignore (FMcmf.add_edge g ~src:2 ~dst:3 ~cap:2.0 ~cost:0.0);
  let f, c = FMcmf.min_cost_max_flow g ~source:0 ~sink:3 in
  checkf "flow" 3.0 f;
  checkf "cost" 11.0 c

let test_mcmf_residual_rerouting () =
  (* Classic instance where the second augmentation must use a residual
     (negative reduced cost) arc. *)
  let g = FMcmf.create ~n:4 in
  ignore (FMcmf.add_edge g ~src:0 ~dst:1 ~cap:1.0 ~cost:1.0);
  ignore (FMcmf.add_edge g ~src:0 ~dst:2 ~cap:1.0 ~cost:10.0);
  ignore (FMcmf.add_edge g ~src:1 ~dst:2 ~cap:1.0 ~cost:1.0);
  ignore (FMcmf.add_edge g ~src:1 ~dst:3 ~cap:1.0 ~cost:10.0);
  ignore (FMcmf.add_edge g ~src:2 ~dst:3 ~cap:1.0 ~cost:1.0);
  let f, c = FMcmf.min_cost_max_flow g ~source:0 ~sink:3 in
  checkf "flow" 2.0 f;
  (* 0-1-2-3 (cost 3) then 0-2-...: only 0-2 then 2-3 is saturated, so
     0-2 (10), residual 2-1 (-1), 1-3 (10) -> total 3 + 19 = 22. *)
  checkf "cost" 22.0 c

let test_mcmf_exact_rational () =
  let q = Q.of_ints in
  let g = QMcmf.create ~n:3 in
  ignore (QMcmf.add_edge g ~src:0 ~dst:1 ~cap:(q 2 3) ~cost:(q 1 2));
  ignore (QMcmf.add_edge g ~src:1 ~dst:2 ~cap:(q 2 3) ~cost:(q 1 5));
  let f, c = QMcmf.min_cost_max_flow g ~source:0 ~sink:2 in
  Alcotest.(check string) "flow exact" "2/3" (Q.to_string f);
  (* 2/3 * (1/2 + 1/5) = 2/3 * 7/10 = 7/15. *)
  Alcotest.(check string) "cost exact" "7/15" (Q.to_string c)

(* Random bipartite transportation problems: compare max-flow value and
   min-cost value against the simplex LP formulation. *)
let transport_gen =
  QCheck2.Gen.(
    let* nsrc = int_range 1 3 in
    let* ndst = int_range 1 3 in
    let cap = map (fun i -> float_of_int i /. 2.0) (int_range 0 8) in
    let cost = map (fun i -> float_of_int i /. 2.0) (int_range 0 6) in
    let* supplies = list_size (return nsrc) cap in
    let* caps = list_size (return (nsrc * ndst)) cap in
    let* costs = list_size (return (nsrc * ndst)) cost in
    return (nsrc, ndst, supplies, caps, costs))

(* LP encoding: variables f_uv >= 0; maximize sum f_uv subject to
   sum_v f_uv <= supply_u and f_uv <= cap_uv. *)
let lp_of_transport (nsrc, ndst, supplies, caps, _costs) =
  let nv = nsrc * ndst in
  let var u v = (u * ndst) + v in
  let supply_rows =
    List.mapi
      (fun u s ->
        let row = Array.make nv 0.0 in
        for v = 0 to ndst - 1 do row.(var u v) <- 1.0 done;
        { FS.coeffs = row; relation = FS.Le; rhs = s })
      supplies
  in
  let cap_rows =
    List.mapi
      (fun i c ->
        let row = Array.make nv 0.0 in
        row.(i) <- 1.0;
        { FS.coeffs = row; relation = FS.Le; rhs = c })
      caps
  in
  { FS.num_vars = nv; maximize = true; objective = Array.make nv 1.0;
    constraints = supply_rows @ cap_rows }

let graph_of_transport (nsrc, ndst, supplies, caps, costs) =
  (* 0 = source, 1..nsrc = sources, nsrc+1..nsrc+ndst = sinks-1, last = sink *)
  let n = nsrc + ndst + 2 in
  let g = FMcmf.create ~n in
  List.iteri
    (fun u s -> ignore (FMcmf.add_edge g ~src:0 ~dst:(1 + u) ~cap:s ~cost:0.0))
    supplies;
  List.iteri
    (fun i c ->
      let u = i / ndst and v = i mod ndst in
      ignore
        (FMcmf.add_edge g ~src:(1 + u) ~dst:(1 + nsrc + v) ~cap:c
           ~cost:(List.nth costs i)))
    caps;
  for v = 0 to ndst - 1 do
    ignore
      (FMcmf.add_edge g ~src:(1 + nsrc + v) ~dst:(n - 1) ~cap:infinity ~cost:0.0)
  done;
  g

let prop_flow_matches_lp =
  QCheck2.Test.make ~name:"transportation max-flow matches simplex" ~count:120
    transport_gen
    (fun spec ->
      let nsrc, ndst, _, _, _ = spec in
      let g = graph_of_transport spec in
      let sink = nsrc + ndst + 1 in
      let flow, _cost = FMcmf.min_cost_max_flow g ~source:0 ~sink in
      match FS.solve (lp_of_transport spec) with
      | FS.Optimal { objective; _ } -> abs_float (flow -. objective) < 1e-6
      | FS.Infeasible | FS.Unbounded -> false)

let suite =
  ( "flow",
    [ Alcotest.test_case "maxflow classic CLRS" `Quick test_maxflow_classic;
      Alcotest.test_case "maxflow disconnected" `Quick test_maxflow_disconnected;
      Alcotest.test_case "flow conservation" `Quick test_maxflow_flow_conservation;
      Alcotest.test_case "min cut" `Quick test_mincut;
      Alcotest.test_case "exact rational maxflow" `Quick test_maxflow_exact_rational;
      Alcotest.test_case "capacity update" `Quick test_maxflow_recompute_after_update;
      Alcotest.test_case "mcmf cheap path first" `Quick test_mcmf_prefers_cheap_path;
      Alcotest.test_case "mcmf residual rerouting" `Quick test_mcmf_residual_rerouting;
      Alcotest.test_case "mcmf exact rational" `Quick test_mcmf_exact_rational;
      QCheck_alcotest.to_alcotest prop_flow_matches_lp ] )

(* Min-cost optimality cross-check: balanced transportation problems where
   the LP gives the reference optimum. *)
let balanced_gen =
  QCheck2.Gen.(
    let* nsrc = int_range 1 3 in
    let* ndst = int_range 1 3 in
    let* supplies = list_size (return nsrc) (int_range 1 6) in
    let* split = list_size (return (List.fold_left ( + ) 0 supplies)) (int_range 0 (ndst - 1)) in
    let* costs = list_size (return (nsrc * ndst)) (int_range 0 9) in
    return (nsrc, ndst, supplies, split, costs))

let prop_mcmf_cost_matches_lp =
  QCheck2.Test.make ~name:"min-cost flow cost matches LP optimum" ~count:100
    balanced_gen
    (fun (nsrc, ndst, supplies, split, costs) ->
      (* Demands: distribute each unit of supply to a destination. *)
      let demands = Array.make ndst 0 in
      List.iter (fun v -> demands.(v) <- demands.(v) + 1) split;
      let total = List.fold_left ( + ) 0 supplies in
      let cost u v = float_of_int (List.nth costs ((u * ndst) + v)) in
      (* Flow network. *)
      let g = FMcmf.create ~n:(nsrc + ndst + 2) in
      List.iteri
        (fun u s ->
          ignore
            (FMcmf.add_edge g ~src:0 ~dst:(1 + u) ~cap:(float_of_int s) ~cost:0.0))
        supplies;
      for u = 0 to nsrc - 1 do
        for v = 0 to ndst - 1 do
          ignore
            (FMcmf.add_edge g ~src:(1 + u) ~dst:(1 + nsrc + v)
               ~cap:(float_of_int total) ~cost:(cost u v))
        done
      done;
      for v = 0 to ndst - 1 do
        ignore
          (FMcmf.add_edge g ~src:(1 + nsrc + v) ~dst:(nsrc + ndst + 1)
             ~cap:(float_of_int demands.(v)) ~cost:0.0)
      done;
      let flow, mc = FMcmf.min_cost_max_flow g ~source:0 ~sink:(nsrc + ndst + 1) in
      (* Reference LP: min sum c x st row sums = supply, column sums = demand. *)
      let nv = nsrc * ndst in
      let var u v = (u * ndst) + v in
      let rows =
        List.mapi
          (fun u s ->
            let r = Array.make nv 0.0 in
            for v = 0 to ndst - 1 do r.(var u v) <- 1.0 done;
            { FS.coeffs = r; relation = FS.Le; rhs = float_of_int s })
          supplies
        @ List.init ndst (fun v ->
              let r = Array.make nv 0.0 in
              for u = 0 to nsrc - 1 do r.(var u v) <- 1.0 done;
              { FS.coeffs = r; relation = FS.Eq; rhs = float_of_int demands.(v) })
      in
      let objective = Array.init nv (fun i -> -.cost (i / ndst) (i mod ndst)) in
      match FS.solve { FS.num_vars = nv; maximize = true; objective; constraints = rows } with
      | FS.Optimal { objective = neg_cost; _ } ->
        abs_float (flow -. float_of_int total) < 1e-6
        && abs_float (mc +. neg_cost) < 1e-6
      | FS.Infeasible | FS.Unbounded -> false)

(* ---- residual-twin invariant and argument validation ------------------ *)

let test_residual_twin_invariant () =
  let q = Q.of_ints in
  let g = QMax.create ~n:4 in
  let e1 = QMax.add_edge g ~src:0 ~dst:1 ~cap:(q 3 2) in
  let e2 = QMax.add_edge g ~src:1 ~dst:3 ~cap:(q 1 1) in
  (* Handles are the even slots; the twin of e lives at e lxor 1. *)
  Alcotest.(check int) "first handle" 0 e1;
  Alcotest.(check int) "second handle" 2 e2;
  let f = QMax.max_flow g ~source:0 ~sink:3 in
  Alcotest.(check string) "value" "1" (Q.to_string f);
  (* flow_on reads the twin's residual capacity: both views must agree. *)
  List.iter
    (fun e ->
      Alcotest.(check string)
        (Printf.sprintf "cap split of edge %d" e)
        (Q.to_string (QMax.capacity_on g e))
        (Q.to_string (Q.add (QMax.flow_on g e) (Q.sub (QMax.capacity_on g e) (QMax.flow_on g e)))))
    [ e1; e2 ];
  Alcotest.(check string) "flow on saturated edge" "1" (Q.to_string (QMax.flow_on g e2))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_invalid msg fragment f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  | exception Invalid_argument m ->
    if not (contains m fragment) then
      Alcotest.failf "%s: message %S does not mention %S" msg m fragment

let test_maxflow_argument_errors () =
  let g = FMax.create ~n:3 in
  let e = FMax.add_edge g ~src:0 ~dst:1 ~cap:1.0 in
  check_invalid "src out of range" "src vertex 7 out of range [0, 3)" (fun () ->
      FMax.add_edge g ~src:7 ~dst:1 ~cap:1.0);
  check_invalid "negative src" "src vertex -1 out of range [0, 3)" (fun () ->
      FMax.add_edge g ~src:(-1) ~dst:1 ~cap:1.0);
  check_invalid "dst out of range" "dst vertex 3 out of range [0, 3)" (fun () ->
      FMax.add_edge g ~src:0 ~dst:3 ~cap:1.0);
  check_invalid "negative capacity" "negative capacity" (fun () ->
      FMax.add_edge g ~src:0 ~dst:1 ~cap:(-1.0));
  check_invalid "twin rejected" "residual twin, not an edge handle" (fun () ->
      FMax.set_capacity g (e + 1) 2.0);
  check_invalid "twin rejected (update)" "residual twin, not an edge handle"
    (fun () -> FMax.update_capacity g ~source:0 ~sink:2 (e + 1) 2.0);
  check_invalid "handle out of range" "edge handle 8 out of range [0, 2)"
    (fun () -> FMax.set_capacity g 8 2.0);
  check_invalid "negative handle" "edge handle -2 out of range" (fun () ->
      FMax.set_capacity g (-2) 2.0)

(* ---- warm-started max-flow vs cold recomputation ----------------------

   Random small graphs, random sequences of capacity updates.  After each
   update the warm graph resumes from its repaired residual state; a
   freshly built graph with the same capacities gives the reference.
   Values must agree exactly (rational arithmetic). *)

type update_script = {
  us_n : int;
  us_edges : (int * int * Q.t) list;  (* src, dst, initial cap *)
  us_updates : (int * Q.t) list;      (* edge index in us_edges, new cap *)
}

let small_cap_gen =
  QCheck2.Gen.(
    let* n = int_range 0 12 in
    let* d = int_range 1 4 in
    return (Q.of_ints n d))

let script_gen =
  QCheck2.Gen.(
    let* n = int_range 3 6 in
    let* nedges = int_range 2 10 in
    let edge_gen =
      let* u = int_range 0 (n - 1) in
      let* v = int_range 0 (n - 1) in
      let* c = small_cap_gen in
      return (u, (v + 1) mod n, c)
    in
    let* edges0 = list_size (return nedges) edge_gen in
    let edges = List.filter (fun (u, v, _) -> u <> v) edges0 in
    let nkept = List.length edges in
    let* updates =
      if nkept = 0 then return []
      else
        list_size (int_range 1 8)
          (let* i = int_range 0 (nkept - 1) in
           let* c = small_cap_gen in
           return (i, c))
    in
    return { us_n = n; us_edges = edges; us_updates = updates })

let build_graph n edges =
  let g = QMax.create ~n in
  let handles = List.map (fun (u, v, c) -> QMax.add_edge g ~src:u ~dst:v ~cap:c) edges in
  (g, Array.of_list handles)

let prop_warm_equals_cold =
  QCheck2.Test.make ~name:"warm-started max-flow equals cold recomputation"
    ~count:300 script_gen (fun sc ->
      let source = 0 and sink = sc.us_n - 1 in
      let caps = Array.of_list (List.map (fun (_, _, c) -> c) sc.us_edges) in
      let warm_g, warm_h = build_graph sc.us_n sc.us_edges in
      let f0 = QMax.max_flow warm_g ~source ~sink in
      let cold () =
        let g, _ = build_graph sc.us_n
            (List.mapi (fun i (u, v, _) -> (u, v, caps.(i))) sc.us_edges)
        in
        QMax.max_flow g ~source ~sink
      in
      Q.equal f0 (cold ())
      && List.for_all
           (fun (i, c) ->
             caps.(i) <- c;
             QMax.update_capacity warm_g ~source ~sink warm_h.(i) c;
             let fw = QMax.max_flow ~warm:true warm_g ~source ~sink in
             Q.equal fw (cold ())
             && Q.equal fw (QMax.flow_value warm_g ~source))
           sc.us_updates)

let test_warm_update_decrease_reroutes () =
  (* Two disjoint 2-hop paths; shrinking the used one mid-flight must
     reroute through the other and keep the flow maximal after a warm
     resume. *)
  let q = Q.of_ints in
  let g = QMax.create ~n:4 in
  let top = QMax.add_edge g ~src:0 ~dst:1 ~cap:(q 2 1) in
  ignore (QMax.add_edge g ~src:1 ~dst:3 ~cap:(q 2 1));
  ignore (QMax.add_edge g ~src:0 ~dst:2 ~cap:(q 2 1));
  ignore (QMax.add_edge g ~src:2 ~dst:3 ~cap:(q 2 1));
  Alcotest.(check string) "cold value" "4"
    (Q.to_string (QMax.max_flow g ~source:0 ~sink:3));
  QMax.update_capacity g ~source:0 ~sink:3 top (q 1 2);
  Alcotest.(check string) "warm value after shrink" "5/2"
    (Q.to_string (QMax.max_flow ~warm:true g ~source:0 ~sink:3));
  Alcotest.(check string) "clamped edge respects new cap" "1/2"
    (Q.to_string (QMax.flow_on g top));
  let before = QMax.augmentations g in
  Alcotest.(check string) "idempotent warm rerun" "5/2"
    (Q.to_string (QMax.max_flow ~warm:true g ~source:0 ~sink:3));
  Alcotest.(check int) "saturated warm rerun augments nothing" before
    (QMax.augmentations g)

(* ---- flat float kernel vs the functor at Field.Float ------------------

   [Float_maxflow] must return the bits [FMax] returns on the same edge
   list: the total and every edge's flow are compared with
   [Int64.bits_of_float], and the [flow.augmentations] counter must grow
   by the functor's augmentation count.  Capacities mix exact ties,
   zeros and values at or below the 1e-9 threshold.  One workspace is
   reused across the graphs of a case, whose sizes differ, so a stale
   [reset] shows. *)

module Flat = Gripps_flow.Float_maxflow

type kgraph = { kn : int; ksrc : int; ksink : int; kedges : (int * int * float) list }

let kcap_gen =
  QCheck2.Gen.(
    frequency
      [ (1, return 0.0);
        (1, oneofl [ 1e-9; 5e-10; 1e-12; 1.5e-9 ]);
        (3, map (fun i -> float_of_int i /. 4.0) (int_range 1 12));
        (3, float_range 0.0 10.0) ])

(* Shaped like the solver's feasibility graphs: source 0 -> jobs, each
   job -> some (interval, machine) cells with its demand as capacity,
   cells -> sink 1. *)
let layered_gen =
  QCheck2.Gen.(
    let* njobs = int_range 1 5 in
    let* ncells = int_range 1 6 in
    let* rems = list_size (return njobs) kcap_gen in
    let* links = list_size (return njobs) (list_size (return ncells) bool) in
    let* cells = list_size (return ncells) kcap_gen in
    let job ji = 2 + ji and cell c = 2 + njobs + c in
    let src = List.mapi (fun ji r -> (0, job ji, r)) rems in
    let mid =
      List.concat
        (List.map2
           (fun (ji, r) ls ->
             List.concat (List.mapi (fun c l -> if l then [ (job ji, cell c, r) ] else []) ls))
           (List.mapi (fun ji r -> (ji, r)) rems) links)
    in
    let out = List.mapi (fun c cap -> (cell c, 1, cap)) cells in
    return { kn = 2 + njobs + ncells; ksrc = 0; ksink = 1; kedges = src @ mid @ out })

(* Any digraph: cycles, antiparallel pairs and self-loops. *)
let general_gen =
  QCheck2.Gen.(
    let* n = int_range 2 9 in
    let* edges =
      list_size (int_range 1 24)
        (let* u = int_range 0 (n - 1) in
         let* v = int_range 0 (n - 1) in
         let* c = kcap_gen in
         let* back = frequency [ (2, return None); (1, map Option.some kcap_gen) ] in
         return ((u, v, c) :: Option.fold ~none:[] ~some:(fun c' -> [ (v, u, c') ]) back))
    in
    return { kn = n; ksrc = 0; ksink = n - 1; kedges = List.concat edges })

let print_kgraphs gs =
  String.concat " | "
    (List.map
       (fun k ->
         Printf.sprintf "n=%d %d->%d: %s" k.kn k.ksrc k.ksink
           (String.concat " "
              (List.map (fun (u, v, c) -> Printf.sprintf "%d>%d:%h" u v c) k.kedges)))
       gs)

let augmentations () =
  Option.value ~default:0 (Gripps_obs.Obs.counter_value "flow.augmentations")

let prop_flat_kernel_matches_functor =
  QCheck2.Test.make ~name:"flat float max-flow equals the functor bit for bit"
    ~count:400 ~print:print_kgraphs
    QCheck2.Gen.(list_size (int_range 1 4) (oneof [ layered_gen; general_gen ]))
    (fun graphs ->
      let ws = Flat.create ~n:2 in
      let bits = Int64.bits_of_float in
      List.for_all
        (fun k ->
          let g = FMax.create ~n:k.kn in
          Flat.reset ws ~n:k.kn;
          let handles =
            List.map
              (fun (u, v, c) ->
                (FMax.add_edge g ~src:u ~dst:v ~cap:c, Flat.add_edge ws ~src:u ~dst:v ~cap:c))
              k.kedges
          in
          let expected = FMax.max_flow g ~source:k.ksrc ~sink:k.ksink in
          let before = augmentations () in
          let got = Flat.max_flow ws ~source:k.ksrc ~sink:k.ksink in
          bits got = bits expected
          && augmentations () - before = FMax.augmentations g
          && List.for_all
               (fun (h, h') -> h = h' && bits (Flat.flow_on ws h') = bits (FMax.flow_on g h))
               handles)
        graphs)

let test_flat_kernel_argument_errors () =
  let g = Flat.create ~n:3 in
  check_invalid "src out of range" "src vertex 3 out of range [0, 3)" (fun () ->
      Flat.add_edge g ~src:3 ~dst:1 ~cap:1.0);
  check_invalid "dst out of range" "dst vertex -1 out of range [0, 3)" (fun () ->
      Flat.add_edge g ~src:0 ~dst:(-1) ~cap:1.0);
  check_invalid "negative capacity" "negative capacity" (fun () ->
      Flat.add_edge g ~src:0 ~dst:1 ~cap:(-1e-8));
  ignore (Flat.add_edge g ~src:0 ~dst:1 ~cap:(-1e-9));
  Flat.reset g ~n:2;
  check_invalid "vertex past a shrinking reset" "dst vertex 2 out of range [0, 2)"
    (fun () -> Flat.add_edge g ~src:0 ~dst:2 ~cap:1.0);
  check_invalid "source = sink" "source = sink" (fun () ->
      Flat.max_flow g ~source:1 ~sink:1)

let suite =
  ( fst suite,
    snd suite
    @ [ QCheck_alcotest.to_alcotest prop_mcmf_cost_matches_lp;
        Alcotest.test_case "residual twin invariant" `Quick
          test_residual_twin_invariant;
        Alcotest.test_case "argument validation messages" `Quick
          test_maxflow_argument_errors;
        Alcotest.test_case "warm update reroutes a shrunk edge" `Quick
          test_warm_update_decrease_reroutes;
        QCheck_alcotest.to_alcotest prop_warm_equals_cold;
        QCheck_alcotest.to_alcotest prop_flat_kernel_matches_functor;
        Alcotest.test_case "flat kernel argument validation" `Quick
          test_flat_kernel_argument_errors ] )
