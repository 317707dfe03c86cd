(** First-class named-scheduler registry.

    One entry per scheduler, carrying its display name, the
    {!Gripps_engine.Sim.flat_scheduler} itself, a coarse kind, its
    information model ({!info}: does it see job sizes?) and the
    objective families it targets ({!caps}).  Panels are carved out of
    the single {!registry} with the predicate-based {!select};
    {!paper_panel} is the Table 1 portfolio (the clairvoyant eleven),
    and remains the default panel everywhere.

    Every entry speaks the engine's one scheduler contract: it writes
    its plans into a {!Gripps_engine.Sim.Plan_buf}. *)

open Gripps_engine
module Metrics = Gripps_model.Metrics

type kind =
  | Offline    (** clairvoyant: solves the hindsight optimum once *)
  | Online     (** re-solves an optimization problem at events *)
  | Heuristic  (** list scheduling / greedy / sharing rules, no solver *)

type info =
  | Clairvoyant     (** sees [W_j] on arrival (the paper's model) *)
  | Nonclairvoyant  (** size-blind: runs on {!Sim.Blind} only *)

type caps = { objectives : Metrics.objective list }
(** Representative objectives the scheduler was designed to optimize —
    matched at {!Metrics.family} granularity by {!targets}. *)

type entry = {
  name : string;
  scheduler : Sim.flat_scheduler;
  kind : kind;
  info : info;
  caps : caps;
}

val registry : entry list
(** Every known scheduler: the Table 1 portfolio in table order
    (Offline, Online, Online-EDF, Online-EGDF, Bender98, SWRPT, SRPT,
    SPT, Bender02, MCT-Div, MCT) followed by the non-clairvoyant
    extensions (EQUI, RR). *)

val select : (entry -> bool) -> entry list
(** The sub-panel of {!registry} satisfying the predicate, in registry
    order. *)

val is_clairvoyant : entry -> bool
val is_nonclairvoyant : entry -> bool

val targets : Metrics.objective -> entry -> bool
(** Does the scheduler target this objective's {!Metrics.family}? *)

val paper_panel : entry list
(** [select is_clairvoyant]: the paper's Table 1 portfolio, the default
    panel of every experiment. *)

val panel_names : entry list -> string list
val schedulers : entry list -> Sim.flat_scheduler list
(** Project display names / engine schedulers out of a panel. *)

val find : string -> entry option
(** Case-insensitive lookup by display name over the whole registry. *)

val find_scheduler : string -> Sim.flat_scheduler option

val kind_name : kind -> string
val info_name : info -> string

val describe : entry -> string
(** One line: name, kind, info model, targeted objectives (the
    [--list-schedulers] format). *)
