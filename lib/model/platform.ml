type t = {
  machines : Machine.t array;
  num_databanks : int;
  hosts_by_db : Machine.t list array;  (* cached reverse index *)
}

let make ~machines ~num_databanks =
  if machines = [] then invalid_arg "Platform.make: no machines";
  if num_databanks <= 0 then invalid_arg "Platform.make: no databanks";
  List.iteri
    (fun i (m : Machine.t) ->
      if m.id <> i then invalid_arg "Platform.make: machine ids must be 0..m-1";
      if Array.length m.databanks <> num_databanks then
        invalid_arg "Platform.make: databank vector length mismatch")
    machines;
  let machines = Array.of_list machines in
  let hosts_by_db =
    Array.init num_databanks (fun d ->
        Array.to_list machines |> List.filter (fun m -> Machine.hosts m d))
  in
  { machines; num_databanks; hosts_by_db }

let machines p = p.machines
let num_machines p = Array.length p.machines
let num_databanks p = p.num_databanks
let machine p i = p.machines.(i)

let total_speed p =
  Array.fold_left (fun acc (m : Machine.t) -> acc +. m.speed) 0.0 p.machines

let hosts_of p d =
  if d < 0 || d >= p.num_databanks then invalid_arg "Platform.hosts_of: bad databank";
  p.hosts_by_db.(d)

let speed_for p d =
  List.fold_left (fun acc (m : Machine.t) -> acc +. m.speed) 0.0 (hosts_of p d)

let can_run _p (j : Job.t) m = Machine.hosts m j.databank

let uniform ~speeds =
  let machines =
    List.mapi (fun i s -> Machine.make ~id:i ~speed:s ~databanks:[| true |]) speeds
  in
  make ~machines ~num_databanks:1

let single ~speed = uniform ~speeds:[ speed ]

let pp fmt p =
  Format.fprintf fmt "@[<v>platform (%d machines, %d databanks)@," (num_machines p)
    p.num_databanks;
  Array.iter (fun m -> Format.fprintf fmt "  %a@," Machine.pp m) p.machines;
  Format.fprintf fmt "@]"
