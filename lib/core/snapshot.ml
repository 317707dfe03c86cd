open Gripps_model
open Gripps_engine
module Q = Gripps_numeric.Rat

type t = {
  problem : Stretch_solver.problem;
  members : int -> int list;
  vspeed : int -> Q.t;
}

(* Group machines by identical databank-hosting vectors.  The virtual
   machine inherits the smallest member id (stable, deterministic).
   [include_] filters the machines considered at all — the on-line path
   uses it to exclude machines that are currently down. *)
let aggregate ?(include_ = fun (_ : Machine.t) -> true) platform =
  let groups = Hashtbl.create 16 in
  Array.iter
    (fun (m : Machine.t) ->
      if include_ m then begin
        let key = Array.to_list m.databanks in
        let speed, ids =
          Option.value ~default:(0.0, []) (Hashtbl.find_opt groups key)
        in
        Hashtbl.replace groups key (speed +. m.speed, m.id :: ids)
      end)
    (Platform.machines platform);
  let specs = ref [] and members_tbl = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _key (speed, ids) ->
      let vid = List.fold_left min (List.hd ids) ids in
      Hashtbl.replace members_tbl vid (List.sort Int.compare ids);
      specs := { Stretch_solver.mid = vid; speed = Q.of_float speed } :: !specs)
    groups;
  let specs =
    List.sort (fun a b -> Int.compare a.Stretch_solver.mid b.Stretch_solver.mid) !specs
  in
  (* Per-databank virtual host lists. *)
  let vhosts d =
    List.filter_map
      (fun (s : Stretch_solver.machine_spec) ->
        let members = Hashtbl.find members_tbl s.mid in
        if Machine.hosts (Platform.machine platform (List.hd members)) d then
          Some s.mid
        else None)
      specs
  in
  (specs, members_tbl, vhosts)

let job_spec vhosts (j : Job.t) ~remaining =
  { Stretch_solver.jid = j.id;
    release = Q.of_float j.release;
    size = Q.of_float j.size;
    remaining;
    machines = vhosts j.databank }

let make_snapshot ?include_ platform ~now ~jobs =
  let specs, members_tbl, vhosts = aggregate ?include_ platform in
  let speed_tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Stretch_solver.machine_spec) -> Hashtbl.replace speed_tbl s.mid s.speed)
    specs;
  (* A job whose every capable machine is excluded (all down) cannot be
     planned now; it is dropped from the problem and waits for a
     Recovery-triggered replan. *)
  let jobs =
    List.filter_map
      (fun (j, rem) ->
        let spec = job_spec vhosts j ~remaining:rem in
        if spec.Stretch_solver.machines = [] then None else Some spec)
      jobs
  in
  { problem = { Stretch_solver.now; jobs; machines = specs };
    members = (fun vid -> Hashtbl.find members_tbl vid);
    vspeed = (fun vid -> Hashtbl.find speed_tbl vid) }

let of_state st =
  let inst = Sim.instance st in
  let platform = Instance.platform inst in
  let jobs =
    Sim.active_jobs st
    |> List.map (fun jid ->
           (Instance.job inst jid, Q.of_float (Sim.remaining st jid)))
  in
  make_snapshot platform ~now:(Q.of_float (Sim.now st)) ~jobs
    ~include_:(fun (m : Machine.t) -> Sim.machine_up st m.Machine.id)

let stretch_floor st =
  let inst = Sim.instance st in
  let floor = ref Q.zero in
  for jid = 0 to Instance.num_jobs inst - 1 do
    match Sim.completion_time st jid with
    | None -> ()
    | Some c ->
      let s =
        Q.div
          (Q.sub (Q.of_float c) (Q.of_float (Instance.release inst jid)))
          (Q.of_float (Instance.size inst jid))
      in
      if Q.gt s !floor then floor := s
  done;
  !floor

let of_instance ?(subset = fun _ -> true) inst =
  let platform = Instance.platform inst in
  (* Records only for the jobs in the subset: Bender98 asks for the
     released prefix at every replan. *)
  let jobs =
    List.init (Instance.num_jobs inst) Fun.id
    |> List.filter subset
    |> List.map (fun jid -> (Instance.job inst jid, Q.of_float (Instance.size inst jid)))
  in
  make_snapshot platform ~now:Q.zero ~jobs

let expand_commitments t per_virtual =
  List.concat_map
    (fun (vid, comms) -> List.map (fun real -> (real, comms)) (t.members vid))
    per_virtual

let sizes_fn inst jid = Q.of_float (Instance.size inst jid)
