open Gripps_model

type policy = Srpt | Greedy | Load | Locality

let all_policies = [ Srpt; Greedy; Load; Locality ]

let policy_name = function
  | Srpt -> "srpt"
  | Greedy -> "greedy"
  | Load -> "load"
  | Locality -> "locality"

let policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "srpt" -> Some Srpt
  | "greedy" | "mct" -> Some Greedy
  | "load" -> Some Load
  | "locality" -> Some Locality
  | _ -> None

type outcome = {
  assignment : int array;
  dispatch : int array;
  release : float array;
  migrations : int;
}

(* The fluid estimate: per shard, the dispatched-but-unfinished jobs as
   a FIFO queue of (global id, remaining estimate), front first.  The
   head is the job in service; between arrivals the queue drains at the
   shard's aggregate speed.  Only the head can be partially served, so
   every queued job behind it is unstarted and carries its full size. *)
type fluid = { mutable queue : (int * float) list }

let backlog f = List.fold_left (fun acc (_, r) -> acc +. r) 0.0 f.queue

let drain f ~capacity =
  let rec go cap = function
    | [] -> []
    | (gid, r) :: rest ->
      if r <= cap then go (cap -. r) rest
      else (gid, r -. cap) :: rest
  in
  if capacity > 0.0 then f.queue <- go capacity f.queue

let append f gid w = f.queue <- f.queue @ [ (gid, w) ]

let remove f gid =
  f.queue <- List.filter (fun (g, _) -> g <> gid) f.queue

let dispatch ?(migrate = false) ~policy shards inst =
  let k = Array.length shards in
  let n = Instance.num_jobs inst in
  let fluids = Array.init k (fun _ -> { queue = [] }) in
  let norm s = backlog fluids.(s) /. Shard.speed shards.(s) in
  let assignment = Array.make n (-1) in
  let dispatch_shard = Array.make n (-1) in
  let release = Array.make n nan in
  (* Lowest index wins ties: strict [<] on the candidate's key. *)
  let argmin ~eligible key =
    let best = ref (-1) and best_key = ref (infinity, infinity) in
    for s = 0 to k - 1 do
      if eligible s then begin
        let key_s = key s in
        if !best < 0 || compare key_s !best_key < 0 then begin
          best := s;
          best_key := key_s
        end
      end
    done;
    !best
  in
  let route (j : Job.t) =
    let db = j.Job.databank in
    let eligible s = Shard.hosts shards.(s) db in
    let s =
      match policy with
      | Load -> argmin ~eligible (fun s -> (norm s, 0.0))
      | Greedy ->
        argmin ~eligible (fun s ->
            (norm s +. (j.Job.size /. Shard.db_speed shards.(s) db), 0.0))
      | Srpt ->
        argmin ~eligible (fun s ->
            let smaller =
              List.fold_left
                (fun acc (_, r) -> if r <= j.Job.size then acc + 1 else acc)
                0 fluids.(s).queue
            in
            (float_of_int smaller, norm s))
      | Locality ->
        argmin ~eligible (fun s -> (-.Shard.db_speed shards.(s) db, norm s))
    in
    (* The partition covers every machine, so some shard hosts [db]. *)
    assert (s >= 0);
    s
  in
  (* One rebalancing move: the most recently dispatched unstarted job of
     the most loaded shard goes to the least loaded shard hosting its
     databank, iff that strictly lowers the pair's normalized-backlog
     maximum.  Returns true when a move happened. *)
  let rebalance_step now =
    let a = ref 0 and b = ref 0 in
    for s = k - 1 downto 0 do
      if norm s >= norm !a then a := s;
      if norm s <= norm !b then b := s
    done;
    let a = !a and b = !b in
    if a = b then false
    else begin
      let unstarted =
        match fluids.(a).queue with [] | [ _ ] -> [] | _ :: rest -> rest
      in
      let candidate =
        List.fold_left
          (fun acc (gid, r) ->
            let db = Instance.databank inst gid in
            if Shard.hosts shards.(b) db then Some (gid, r) else acc)
          None unstarted
      in
      match candidate with
      | None -> false
      | Some (gid, w) ->
        let old_max = Float.max (norm a) (norm b) in
        let new_a = (backlog fluids.(a) -. w) /. Shard.speed shards.(a) in
        let new_b = (backlog fluids.(b) +. w) /. Shard.speed shards.(b) in
        if Float.max new_a new_b < old_max then begin
          remove fluids.(a) gid;
          append fluids.(b) gid w;
          assignment.(gid) <- b;
          release.(gid) <- now;
          true
        end
        else false
    end
  in
  let rebalance now =
    (* Each move strictly lowers the most loaded shard involved, so the
       loop terminates; the cap is a belt-and-braces bound. *)
    let cap = ref (n + k) in
    while !cap > 0 && rebalance_step now do
      decr cap
    done
  in
  let last = ref 0.0 in
  Array.iter
    (fun (j : Job.t) ->
      let now = j.Job.release in
      let dt = now -. !last in
      if dt > 0.0 then
        Array.iteri
          (fun s f -> drain f ~capacity:(Shard.speed shards.(s) *. dt))
          fluids;
      last := now;
      let s = route j in
      append fluids.(s) j.Job.id j.Job.size;
      assignment.(j.Job.id) <- s;
      dispatch_shard.(j.Job.id) <- s;
      release.(j.Job.id) <- now;
      if migrate && k > 1 then rebalance now)
    (Instance.jobs inst);
  let migrations = ref 0 in
  for j = 0 to n - 1 do
    if assignment.(j) <> dispatch_shard.(j) then incr migrations
  done;
  { assignment; dispatch = dispatch_shard; release; migrations = !migrations }
