open Gripps_engine
open Gripps_core
open Gripps_sched
module Metrics = Gripps_model.Metrics

type kind = Offline | Online | Heuristic
type info = Clairvoyant | Nonclairvoyant

type caps = { objectives : Metrics.objective list }

type entry = {
  name : string;
  scheduler : Sim.flat_scheduler;
  kind : kind;
  info : info;
  caps : caps;
}

let entry ?(info = Clairvoyant) ~targets kind (s : Sim.flat_scheduler) =
  { name = s.Sim.fname;
    scheduler = s;
    kind;
    info;
    caps = { objectives = targets } }

(* Table 1 order, then the non-clairvoyant extensions.  Bender98/Bender02
   re-solve a stretch optimization at every arrival, so they are on-line
   solver-driven schedulers even though their decision rules differ from
   the Online family. *)
let registry =
  [ entry Offline Gripps_core.Offline.scheduler
      ~targets:[ Metrics.Max_stretch ];
    entry Online Online_lp.online
      ~targets:[ Metrics.Max_stretch; Metrics.Sum_stretch ];
    entry Online Online_lp.online_edf ~targets:[ Metrics.Max_stretch ];
    entry Online Online_lp.online_egdf ~targets:[ Metrics.Max_stretch ];
    entry Online Bender.bender98 ~targets:[ Metrics.Max_stretch ];
    entry Heuristic List_sched.flat_swrpt ~targets:[ Metrics.Sum_stretch ];
    entry Heuristic List_sched.flat_srpt
      ~targets:[ Metrics.Sum_flow; Metrics.Sum_stretch ];
    entry Heuristic List_sched.flat_spt ~targets:[ Metrics.Sum_stretch ];
    entry Online Bender.bender02 ~targets:[ Metrics.Max_stretch ];
    entry Heuristic Greedy.mct_div ~targets:[ Metrics.Makespan ];
    entry Heuristic Greedy.mct ~targets:[ Metrics.Makespan ];
    entry Heuristic Nonclairvoyant.equi ~info:Nonclairvoyant
      ~targets:[ Metrics.Sum_flow ];
    entry Heuristic Nonclairvoyant.rr ~info:Nonclairvoyant
      ~targets:[ Metrics.Sum_flow ] ]

let select p = List.filter p registry

let is_clairvoyant e = e.info = Clairvoyant
let is_nonclairvoyant e = e.info = Nonclairvoyant

let paper_panel = select is_clairvoyant

let targets o e =
  List.exists (fun o' -> Metrics.family o' = Metrics.family o) e.caps.objectives

let panel_names panel = List.map (fun e -> e.name) panel
let schedulers panel = List.map (fun e -> e.scheduler) panel

let find name =
  let name = String.lowercase_ascii name in
  List.find_opt (fun e -> String.lowercase_ascii e.name = name) registry

let find_scheduler name = Option.map (fun e -> e.scheduler) (find name)

let kind_name = function
  | Offline -> "offline"
  | Online -> "online"
  | Heuristic -> "heuristic"

let info_name = function
  | Clairvoyant -> "clairvoyant"
  | Nonclairvoyant -> "non-clairvoyant"

let describe e =
  Printf.sprintf "%-14s %-10s %-16s targets: %s" e.name (kind_name e.kind)
    (info_name e.info)
    (String.concat ", " (List.map Metrics.objective_name e.caps.objectives))
