open Gripps_model
open Gripps_engine

(* Both schedulers below are written exclusively against [Sim.Blind]: the
   view type is abstract, so neither can observe W_j, remaining work or
   the instance — non-clairvoyance is enforced by the compiler. *)

(* EQUI (equal processor sharing): every up machine splits its time
   evenly among the active jobs whose databank it hosts.  No sizes, no
   priorities — the textbook non-clairvoyant baseline, generalized to the
   databank-constrained platform by sharing each machine only among the
   jobs it can actually serve. *)
let equi =
  Sim.nonclairvoyant "EQUI" (fun v buf ->
      let platform = Sim.Blind.platform v in
      let active = Sim.Blind.active_jobs v in
      (* Descending machine order: the engine reads grab-order runs
         reversed, so the canonical plan lists machines ascending. *)
      for m = Platform.num_machines platform - 1 downto 0 do
        let hosts j = Machine.hosts (Platform.machine platform m) (Sim.Blind.databank v j) in
        let mine = if Sim.Blind.machine_up v m then List.filter hosts active else [] in
        match mine with
        | [] -> ()
        | js ->
          let share = 1.0 /. float_of_int (List.length js) in
          Sim.Plan_buf.begin_machine buf m;
          List.iter (fun job -> Sim.Plan_buf.push_share buf ~job ~share) js
      done)

(* Round-robin with a time quantum: list scheduling (each job grabs every
   free up host of its databank) over the active jobs rotated by a cursor
   that advances whenever a quantum expires.  The plan horizon drives the
   preemption: every [quantum] seconds the engine fires a [Boundary]
   event and the next rotation gets the machines. *)
type rr = { mutable cursor : int }

let rr_with ~quantum =
  if not (quantum > 0.0) then
    invalid_arg "Nonclairvoyant.rr_with: non-positive quantum";
  Sim.nonclairvoyant_incremental ~name:"RR"
    ~init:(fun _platform -> { cursor = 0 })
    ~on_event:(fun s v buf ->
      if Sim.Blind.at_boundary v then s.cursor <- s.cursor + 1;
      match Sim.Blind.active_jobs v with
      | [] -> ()
      | active ->
        let arr = Array.of_list active in
        let n = Array.length arr in
        let platform = Sim.Blind.platform v in
        let free = Array.make (Platform.num_machines platform) true in
        for i = 0 to n - 1 do
          let j = arr.((i + s.cursor) mod n) in
          List.iter
            (fun (m : Machine.t) ->
              if free.(m.id) && Sim.Blind.machine_up v m.id then begin
                free.(m.id) <- false;
                Sim.Plan_buf.begin_machine buf m.id;
                Sim.Plan_buf.push_unit_share buf ~job:j
              end)
            (Platform.hosts_of platform (Sim.Blind.databank v j))
        done;
        (* With every relevant machine down, park until an arrival or a
           repair (matching the other schedulers' stall semantics) rather
           than spinning on quantum boundaries. *)
        if not (Sim.Plan_buf.is_empty buf) then
          Sim.Plan_buf.set_horizon buf (Sim.Blind.now v +. quantum))

let default_quantum = 1.0
let rr = rr_with ~quantum:default_quantum
