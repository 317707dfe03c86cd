type t = { id : int; speed : float; databanks : bool array }

let make ~id ~speed ~databanks =
  if speed <= 0.0 then invalid_arg "Machine.make: non-positive speed";
  { id; speed; databanks = Array.copy databanks }

let hosts m d = d >= 0 && d < Array.length m.databanks && m.databanks.(d)

let pp fmt m =
  let dbs =
    Array.to_list m.databanks
    |> List.mapi (fun i present -> if present then Some i else None)
    |> List.filter_map Fun.id
    |> List.map string_of_int
    |> String.concat ","
  in
  Format.fprintf fmt "M%d[speed=%g, dbs={%s}]" m.id m.speed dbs
