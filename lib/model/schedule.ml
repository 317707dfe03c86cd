type segment = {
  start_time : float;
  end_time : float;
  shares : (int * (int * float) list) list;
}

type t = {
  instance : Instance.t;
  segments : segment list;
  completion : float array;  (* NaN: not completed *)
}

let make ~instance ~segments ~completion = { instance; segments; completion }

module Builder = struct
  (* Growable array of segments in append order: the engine's hot loop
     pushes one segment per event without the [seg :: acc] + final
     [List.rev] churn of the list encoding. *)
  type builder = {
    mutable data : segment array;
    mutable len : int;
  }

  let dummy = { start_time = 0.0; end_time = 0.0; shares = [] }
  let create () = { data = [||]; len = 0 }
  let length b = b.len

  let add b seg =
    let cap = Array.length b.data in
    if b.len = cap then begin
      let ncap = if cap = 0 then 16 else 2 * cap in
      let nd = Array.make ncap dummy in
      Array.blit b.data 0 nd 0 b.len;
      b.data <- nd
    end;
    b.data.(b.len) <- seg;
    b.len <- b.len + 1

  let segments b = List.init b.len (fun i -> b.data.(i))
end

let rel_eps = 1e-6

let work_received t j =
  let platform = Instance.platform t.instance in
  List.fold_left
    (fun acc seg ->
      let dt = seg.end_time -. seg.start_time in
      List.fold_left
        (fun acc (mid, shares) ->
          let speed = (Platform.machine platform mid).Machine.speed in
          List.fold_left
            (fun acc (jid, share) ->
              if jid = j then acc +. (share *. speed *. dt) else acc)
            acc shares)
        acc seg.shares)
    0.0 t.segments

let machine_busy_time t m =
  List.fold_left
    (fun acc seg ->
      let dt = seg.end_time -. seg.start_time in
      List.fold_left
        (fun acc (mid, shares) ->
          if mid = m then
            acc +. (dt *. List.fold_left (fun s (_, share) -> s +. share) 0.0 shares)
          else acc)
        acc seg.shares)
    0.0 t.segments

let is_completed t j = not (Float.is_nan t.completion.(j))

let completion_exn t j =
  if is_completed t j then t.completion.(j)
  else failwith (Printf.sprintf "Schedule.completion_exn: job %d unfinished" j)

let all_completed t = Array.for_all (fun c -> not (Float.is_nan c)) t.completion

let same_completion a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let validate t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let platform = Instance.platform t.instance in
  let nj = Instance.num_jobs t.instance in
  (* Chronology. *)
  let rec chrono prev = function
    | [] -> ()
    | seg :: rest ->
      if seg.end_time < seg.start_time -. 1e-12 then
        err "segment [%g, %g] reversed" seg.start_time seg.end_time;
      if seg.start_time < prev -. 1e-9 then
        err "segment at %g overlaps previous ending at %g" seg.start_time prev;
      chrono seg.end_time rest
  in
  chrono neg_infinity t.segments;
  (* Per-segment share and placement constraints. *)
  List.iter
    (fun seg ->
      List.iter
        (fun (mid, shares) ->
          if mid < 0 || mid >= Platform.num_machines platform then
            err "segment references machine %d out of range" mid
          else begin
            let total = List.fold_left (fun s (_, share) -> s +. share) 0.0 shares in
            (* Both tests are negated so a NaN share fails them. *)
            if not (total <= 1.0 +. rel_eps) then
              err "machine %d oversubscribed (%g) in segment [%g, %g]" mid total
                seg.start_time seg.end_time;
            List.iter
              (fun (jid, share) ->
                if not (share > 0.0) then
                  err "non-positive share %g for job %d on machine %d" share jid mid;
                if jid < 0 || jid >= nj then
                  err "segment references job %d out of range" jid
                else begin
                  let db = Instance.databank t.instance jid in
                  let release = Instance.release t.instance jid in
                  if not (Machine.hosts (Platform.machine platform mid) db) then
                    err "job %d runs on machine %d lacking databank %d" jid mid db;
                  if seg.start_time < release -. 1e-9 then
                    err "job %d runs at %g before release %g" jid seg.start_time
                      release
                end)
              shares
          end)
        seg.shares)
    t.segments;
  (* Work accounting and completion consistency. *)
  for jid = 0 to nj - 1 do
    let size = Instance.size t.instance jid in
    let release = Instance.release t.instance jid in
    let w = work_received t jid in
    if is_completed t jid then begin
      let c = t.completion.(jid) in
      if abs_float (w -. size) > rel_eps *. size +. 1e-9 then
        err "job %d completed but received %g of %g Mflop" jid w size;
      if c < release then err "job %d completes at %g before release %g" jid c release;
      (* The job must not run after its recorded completion. *)
      List.iter
        (fun seg ->
          if seg.start_time > c +. 1e-9 then
            List.iter
              (fun (_, shares) ->
                if List.mem_assoc jid shares then
                  err "job %d runs after its completion %g" jid c)
              seg.shares)
        t.segments
    end
    else if w > size +. (rel_eps *. size) +. 1e-9 then
      err "job %d unfinished yet received %g > %g Mflop" jid w size
  done;
  List.rev !errors

let pp fmt t =
  Format.fprintf fmt "@[<v>schedule (%d segments)@," (List.length t.segments);
  List.iter
    (fun seg ->
      Format.fprintf fmt "  [%8.3f, %8.3f]:" seg.start_time seg.end_time;
      List.iter
        (fun (mid, shares) ->
          Format.fprintf fmt " M%d{" mid;
          List.iter (fun (jid, share) -> Format.fprintf fmt "J%d:%.2f " jid share) shares;
          Format.fprintf fmt "}")
        seg.shares;
      Format.fprintf fmt "@,")
    t.segments;
  Format.fprintf fmt "@]"
