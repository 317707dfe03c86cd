open Gripps_engine
open Gripps_sched

type t = { mutable comms : (int * Realize.commitment list) list }

let create () = { comms = [] }

let set_plan t plan = t.comms <- plan

let time_eps = 1e-9

let step t st buf =
  let now = Sim.now st in
  (* Garbage-collect elapsed commitments. *)
  t.comms <-
    List.map
      (fun (m, cs) ->
        (m, List.filter (fun (c : Realize.commitment) -> c.stop > now +. time_eps) cs))
      t.comms;
  let next_edge = ref infinity in
  List.iter
    (fun (m, cs) ->
      List.iter
        (fun (c : Realize.commitment) ->
          if c.start_ <= now +. time_eps then begin
            (* Down machines keep their commitments (work resumes if they
               recover mid-window) but must not appear in the allocation. *)
            if (not (Sim.is_completed st c.job)) && Sim.machine_up st m then begin
              Sim.Plan_buf.begin_machine buf m;
              Sim.Plan_buf.push_unit_share buf ~job:c.job
            end;
            if c.stop < !next_edge then next_edge := c.stop
          end
          else if c.start_ < !next_edge then next_edge := c.start_)
        cs)
    t.comms;
  if Sim.Plan_buf.is_empty buf && !next_edge = infinity && Sim.active_jobs st <> []
  then
    (* Plan exhausted with residual work: mop up. *)
    List_sched.resort Priority.swrpt st buf
  else if not (!next_edge = infinity || !next_edge <= now +. time_eps) then
    Sim.Plan_buf.set_horizon buf !next_edge
