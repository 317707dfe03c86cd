open Gripps_model
open Gripps_engine
module Heap = Gripps_collections.Heap
module Vec = Gripps_collections.Vec
module Pb = Kernel.Plan_buf

let allocate st ~priority_order buf =
  let inst = Sim.instance st in
  let platform = Instance.platform inst in
  let nm = Platform.num_machines platform in
  let free = Array.make nm true in
  List.iter
    (fun j ->
      if (not (Sim.is_completed st j)) && Sim.is_released st j then begin
        let db = Instance.databank inst j in
        List.iter
          (fun (m : Machine.t) ->
            if free.(m.id) && Sim.machine_up st m.id then begin
              free.(m.id) <- false;
              Pb.begin_machine buf m.id;
              Pb.push_unit_share buf ~job:j
            end)
          (Platform.hosts_of platform db)
      end)
    priority_order

let resort rule st buf =
  let order =
    Sim.active_jobs st
    |> List.map (fun j -> (rule st j, j))
    |> List.sort compare
    |> List.map snd
  in
  allocate st ~priority_order:order buf

let resort_scheduler ~name ~rule =
  Sim.flat_stateless name (fun st buf -> resort rule st buf)

type flat_rule = Rule_fcfs | Rule_spt | Rule_srpt | Rule_swpt | Rule_swrpt

let rule_name = function
  | Rule_fcfs -> "FCFS"
  | Rule_spt -> "SPT"
  | Rule_srpt -> "SRPT"
  | Rule_swpt -> "SWPT"
  | Rule_swrpt -> "SWRPT"

(* ------------------------------------------------------------------ *)
(* The rule engine: one indexed min-heap per databank, keyed by the
   rule with id tiebreak, and the root-only allocation walk.  Ids are
   whatever the driver indexes its kernel columns by — job ids in Sim,
   slot ids in the daemon.                                              *)
(* ------------------------------------------------------------------ *)

type engine = {
  rule : flat_rule;
  release : float array;              (* driver-owned, id-indexed *)
  db : int array;                     (* driver-owned, id-indexed *)
  heaps : Heap.Indexed.t array;       (* one heap per databank, one family:
                                         a job is in its databank's heap
                                         only, so they share the id-indexed
                                         key/position columns *)
  hosts : int array array;            (* machines per databank, hosts_of order *)
  dbs_of_machine : int array array;   (* int arrays: closure-free loops *)
  (* walk scratch, persisted across plans *)
  mfree : bool array;                 (* machine not yet grabbed *)
  free_up : int array;                (* per databank: # free ∧ up hosts *)
  mutable best_d : int;               (* best databank, -1 = none *)
  mutable best_j : int;               (* its root *)
  best_k : float array;               (* best_k.(0): the root's key (a
                                         mutable float field would box on
                                         every store) *)
}

let engine ~rule ~platform ~capacity ~release ~db =
  let nm = Platform.num_machines platform in
  let nd = Platform.num_databanks platform in
  { rule; release; db;
    heaps = Heap.Indexed.family ~capacity nd;
    hosts =
      Array.init nd (fun d ->
          Platform.hosts_of platform d
          |> List.map (fun (m : Machine.t) -> m.id)
          |> Array.of_list);
    dbs_of_machine =
      Array.init nm (fun mid ->
          let m = Platform.machine platform mid in
          List.filter (fun d -> Machine.hosts m d) (List.init nd Fun.id)
          |> Array.of_list);
    mfree = Array.make nm true;
    free_up = Array.make nd 0;
    best_d = -1;
    best_j = 0;
    best_k = Array.make 1 nan }

let replicas e d = Array.length e.hosts.(d)

(* Stage id [j]'s key into its heap.  Each rule computes the exact
   expression the [Priority] closures evaluate — same operands, same
   order — so stored keys stay bit-identical to the oracle's.
   [Heap.Indexed.put_key] is a one-line array store the compiler
   inlines, so the float never crosses a call boundary. *)
let stage_key e (k : Kernel.t) h j =
  match e.rule with
  | Rule_fcfs -> Heap.Indexed.put_key h j e.release.(j)
  | Rule_spt -> Heap.Indexed.put_key h j k.Kernel.size.(j)
  | Rule_srpt -> Heap.Indexed.put_key h j k.Kernel.remaining.(j)
  | Rule_swpt -> Heap.Indexed.put_key h j (k.Kernel.size.(j) *. k.Kernel.size.(j))
  | Rule_swrpt ->
    Heap.Indexed.put_key h j (k.Kernel.remaining.(j) *. k.Kernel.size.(j))

let add e k j =
  let h = e.heaps.(e.db.(j)) in
  stage_key e k h j;
  Heap.Indexed.add_keyed h j

let remove e j = Heap.Indexed.remove e.heaps.(e.db.(j)) j

(* Only the old plan's support can have moved: an unallocated id's
   remaining work is constant.  Completed or recycled ids are skipped by
   the membership test. *)
let rekey e (k : Kernel.t) =
  match e.rule with
  | Rule_fcfs | Rule_spt | Rule_swpt -> ()  (* keys never change *)
  | Rule_srpt | Rule_swrpt ->
    for i = 0 to Vec.length k.Kernel.rated - 1 do
      let j = Vec.get k.Kernel.rated i in
      let h = e.heaps.(e.db.(j)) in
      if Heap.Indexed.mem h j then begin
        stage_key e k h j;
        Heap.Indexed.update_keyed h j
      end
    done

(* The walk, top level so no closure is built per plan: find the minimum
   (key, id) among the roots of the databanks that still have a free up
   host, let it grab every one of them, repeat.

   Why roots suffice.  The list-scheduling rule (paper §3.2) walks every
   active job in priority order, and a job changes machine state only
   if its databank still has a free up host — in which case it takes
   {e all} of them, driving that databank's [free_up] to zero.  So a
   databank wins at most once per plan, and the next state-changing job
   is always the smallest (key, id) among the roots of the databanks
   still qualifying.  Grabs are pushed in the sorted walk's (job-major,
   hosts_of-minor) order into a grab-order buffer, so the canonical plan
   is the oracle's prepended allocation list, bit for bit.  The heaps
   are only read, never popped. *)
let rec walk e (k : Kernel.t) buf =
  e.best_d <- -1;
  for d = 0 to Array.length e.heaps - 1 do
    let h = e.heaps.(d) in
    if e.free_up.(d) > 0 && Heap.Indexed.slot_count h > 0 then begin
      let j = Heap.Indexed.slot_id h 0 in
      let key = Heap.Indexed.slot_key h 0 in
      if
        e.best_d < 0 || key < e.best_k.(0)
        || (key = e.best_k.(0) && j < e.best_j)
      then begin
        e.best_d <- d;
        e.best_j <- j;
        e.best_k.(0) <- key
      end
    end
  done;
  if e.best_d >= 0 then begin
    let j = e.best_j in
    let hosts = e.hosts.(e.best_d) in
    for i = 0 to Array.length hosts - 1 do
      let m = hosts.(i) in
      if e.mfree.(m) && k.Kernel.up.(m) then begin
        e.mfree.(m) <- false;
        Pb.begin_machine buf m;
        Pb.push_unit_share buf ~job:j;
        let dbs = e.dbs_of_machine.(m) in
        for q = 0 to Array.length dbs - 1 do
          e.free_up.(dbs.(q)) <- e.free_up.(dbs.(q)) - 1
        done
      end
    done;
    walk e k buf
  end

let plan e (k : Kernel.t) buf =
  Array.fill e.mfree 0 (Array.length e.mfree) true;
  for d = 0 to Array.length e.hosts - 1 do
    let hosts = e.hosts.(d) in
    e.free_up.(d) <- 0;
    for i = 0 to Array.length hosts - 1 do
      if k.Kernel.up.(hosts.(i)) then e.free_up.(d) <- e.free_up.(d) + 1
    done
  done;
  Pb.clear ~grab_order:true buf;
  walk e k buf

(* ------------------------------------------------------------------ *)
(* The batch driver: job ids, fed by the engine's event batch.         *)
(* ------------------------------------------------------------------ *)

(* Release dates and databanks are the instance's own columns: the engine
   only reads them, so nothing is copied. *)
let sim_engine rule inst =
  engine ~rule ~platform:(Instance.platform inst)
    ~capacity:(Instance.num_jobs inst) ~release:(Instance.releases inst)
    ~db:(Instance.databanks inst)

let on_event e st buf =
  let k = Sim.kernel st in
  for i = 0 to Sim.Events.count st - 1 do
    match Sim.Events.kind st i with
    | `Arrival -> add e k (Sim.Events.subject st i)
    | `Completion -> remove e (Sim.Events.subject st i)
    | `Boundary | `Failure | `Recovery -> ()
  done;
  rekey e k;
  plan e k buf

let flat_scheduler rule =
  Sim.flat_incremental ~name:(rule_name rule) ~init:(sim_engine rule) ~on_event

let flat_fcfs = flat_scheduler Rule_fcfs
let flat_spt = flat_scheduler Rule_spt
let flat_srpt = flat_scheduler Rule_srpt
let flat_swpt = flat_scheduler Rule_swpt
let flat_swrpt = flat_scheduler Rule_swrpt
