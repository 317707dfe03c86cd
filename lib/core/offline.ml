open Gripps_engine
module Q = Gripps_numeric.Rat

let optimal_max_stretch ?budget inst =
  Stretch_solver.optimal_max_stretch ?budget (Snapshot.of_instance inst).Snapshot.problem

(* Degradation chain for the clairvoyant solve: the exact rational
   pipeline falls back to the float pipeline under the same budget, and
   the float pipeline falls back to greedy list scheduling (an empty plan
   makes [Plan_player.step] run its SWRPT mop-up). *)
let solve_guarded ?(budget = Stretch_solver.default_budget) ~refine problem =
  match Stretch_solver.solve ~budget ~refine problem with
  | a -> Some a
  | exception Stretch_solver.Budget_exhausted _ -> (
    match Stretch_solver.solve_float ~budget ~refine problem with
    | a -> Some a
    | exception Stretch_solver.Budget_exhausted _ -> None)

let make_scheduler ?budget name ~refine =
  { Sim.fname = name;
    fmake =
      (fun inst ->
        let player = Plan_player.create () in
        let planned = ref false in
        fun st buf ->
          if not !planned then begin
            planned := true;
            let snap = Snapshot.of_instance inst in
            match solve_guarded ?budget ~refine snap.Snapshot.problem with
            | Some a ->
              Plan_player.set_plan player
                (Snapshot.expand_commitments snap
                   (Realize.commitments a ~policy:Realize.Terminal_first
                      ~sizes:(Snapshot.sizes_fn inst) ~speeds:snap.Snapshot.vspeed))
            | None -> Plan_player.set_plan player []
          end;
          Plan_player.step player st buf) }

let scheduler = make_scheduler "Offline" ~refine:false
let scheduler_refined = make_scheduler "Offline-Refined" ~refine:true
let scheduler_budgeted budget = make_scheduler ~budget "Offline-Budgeted" ~refine:false
