type fault_axis = {
  mtbf : float;
  mttr : float;
  loss : Gripps_engine.Fault.loss;
}

type t = {
  sites : int;
  processors_per_site : int;
  databases : int;
  availability : float;
  density : float;
  horizon : float;
  db_size_range : float * float;
  reference_speeds : float array;
  faults : fault_axis option;
  users : int;
}

(* Six per-processor reference speeds (MB/s), mimicking the spread of the
   six GriPPS benchmark platforms of [11]. *)
let gripps_reference_speeds = [| 0.6; 0.9; 1.2; 1.5; 1.9; 2.4 |]

let fault_axis ?(loss = Gripps_engine.Fault.Crash) ~mtbf ~mttr () =
  if not (mtbf > 0.0) then invalid_arg "Config.fault_axis: non-positive mtbf";
  if not (mttr > 0.0) then invalid_arg "Config.fault_axis: non-positive mttr";
  { mtbf; mttr; loss }

let make ?(processors_per_site = 10) ?(horizon = 900.0)
    ?(db_size_range = (10.0, 1000.0)) ?(reference_speeds = gripps_reference_speeds)
    ?faults ?(users = 1) ~sites ~databases ~availability ~density () =
  if sites <= 0 then invalid_arg "Config.make: non-positive sites";
  if processors_per_site <= 0 then
    invalid_arg "Config.make: non-positive processors_per_site";
  if databases <= 0 then invalid_arg "Config.make: non-positive databases";
  (* Written as negations so NaN fails them too. *)
  if not (availability > 0.0 && availability <= 1.0) then
    invalid_arg "Config.make: availability outside (0, 1]";
  if not (density > 0.0 && density < infinity) then
    invalid_arg "Config.make: density not finite and positive";
  if not (horizon > 0.0 && horizon < infinity) then
    invalid_arg "Config.make: horizon not finite and positive";
  let lo, hi = db_size_range in
  if lo <= 0.0 || hi < lo then invalid_arg "Config.make: degenerate size range";
  if Array.length reference_speeds = 0 then
    invalid_arg "Config.make: no reference speeds";
  if users <= 0 then invalid_arg "Config.make: non-positive users";
  { sites; processors_per_site; databases; availability; density; horizon;
    db_size_range; reference_speeds; faults; users }

let with_faults c faults = { c with faults = Some faults }

let default =
  make ~sites:3 ~databases:3 ~availability:0.6 ~density:1.0 ()

let paper_grid ?(scale_window = true) ~horizon () =
  List.concat_map
    (fun sites ->
      (* The paper kept a 15-minute window for every platform size, so job
         counts grew with the aggregate speed; at reproduction scale we
         instead keep the *expected job count* comparable by shrinking the
         window on larger platforms (3x baseline at 3 sites).  Stretch
         ratios are scale-free, and the platform-size effects of Tables
         2-4 come from the machine count, which is preserved. *)
      let horizon =
        if scale_window then horizon *. 3.0 /. float_of_int sites else horizon
      in
      List.concat_map
        (fun databases ->
          List.concat_map
            (fun availability ->
              List.map
                (fun density ->
                  make ~horizon ~sites ~databases ~availability ~density ())
                [ 0.75; 1.0; 1.25; 1.5; 2.0; 3.0 ])
            [ 0.3; 0.6; 0.9 ])
        [ 3; 10; 20 ])
    [ 3; 10; 20 ]

let describe c =
  let base =
    Printf.sprintf "%d sites x %d cpus, %d dbs, avail %.0f%%, density %.2f"
      c.sites c.processors_per_site c.databases (100.0 *. c.availability) c.density
  in
  let base = if c.users > 1 then Printf.sprintf "%s, %d users" base c.users else base in
  match c.faults with
  | None -> base
  | Some f ->
    Printf.sprintf "%s, faults mtbf %.0fs mttr %.0fs (%s)" base f.mtbf f.mttr
      (match f.loss with Gripps_engine.Fault.Crash -> "crash" | Pause -> "pause")
