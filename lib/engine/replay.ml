open Gripps_model
module J = Gripps_obs.Obs.Journal

let schedule_of_journal inst events =
  let nj = Instance.num_jobs inst in
  let completion = Array.make nj nan in
  let segments = ref [] in
  List.iter
    (fun (e : J.event) ->
      match e with
      | J.Sim_event { time; kind = J.Completion; subject } ->
        if subject < 0 || subject >= nj then
          invalid_arg "Replay: completion record for unknown job";
        completion.(subject) <- time
      | J.Segment { start_time; end_time; shares } ->
        List.iter
          (fun (_, js) ->
            List.iter
              (fun (j, _) ->
                if j < 0 || j >= nj then
                  invalid_arg "Replay: segment record for unknown job")
              js)
          shares;
        segments :=
          { Schedule.start_time; end_time; shares } :: !segments
      | J.Sim_event _ | J.Run_start _ | J.Replan _ | J.Probe _
      | J.Span_closed _ | J.Note _ | J.Run_end _ -> ())
    events;
  Schedule.make ~instance:inst ~segments:(List.rev !segments) ~completion

let completed_jobs events =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (e : J.event) ->
      match e with
      | J.Sim_event { kind = J.Completion; subject; _ } ->
        Hashtbl.replace seen subject ()
      | _ -> ())
    events;
  Hashtbl.length seen
