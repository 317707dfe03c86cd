open Gripps_model
module Fault = Gripps_engine.Fault
module Kernel = Gripps_engine.Kernel
module Pb = Gripps_engine.Kernel.Plan_buf
module Source = Gripps_workload.Source
module Obs = Gripps_obs.Obs
module J = Obs.Journal
module Fsio = Gripps_obs.Fsio
module Vec = Gripps_collections.Vec
module List_sched = Gripps_sched.List_sched

(* ---- configuration ----------------------------------------------------- *)

type rule = Fcfs | Spt | Srpt | Swpt | Swrpt

let flat_rule = function
  | Fcfs -> List_sched.Rule_fcfs
  | Spt -> List_sched.Rule_spt
  | Srpt -> List_sched.Rule_srpt
  | Swpt -> List_sched.Rule_swpt
  | Swrpt -> List_sched.Rule_swrpt

let rule_name r = List_sched.rule_name (flat_rule r)

let rule_of_string s =
  match String.uppercase_ascii s with
  | "FCFS" -> Some Fcfs
  | "SPT" -> Some Spt
  | "SRPT" -> Some Srpt
  | "SWPT" -> Some Swpt
  | "SWRPT" -> Some Swrpt
  | _ -> None

type policy = Drop | Block | Shed

let policy_name = function Drop -> "drop" | Block -> "block" | Shed -> "shed"

let policy_of_string s =
  match String.lowercase_ascii s with
  | "drop" -> Some Drop
  | "block" -> Some Block
  | "shed" -> Some Shed
  | _ -> None

type config = {
  platform : Platform.t;
  rule : rule;
  policy : policy;
  max_live : int;
  queue_cap : int;
  faults : Fault.trace;
  loss : Fault.loss;
  horizon : float option;
  checkpoint : string option;
  checkpoint_every : int;
  journal_dir : string option;
  seg_limit : int;
  source_desc : string;
  replan_deadline : float option;
}

let config ~platform ?(rule = Swrpt) ?(policy = Drop) ?(max_live = 4096)
    ?(queue_cap = 1024) ?(faults = []) ?(loss = Fault.Crash) ?horizon
    ?checkpoint ?(checkpoint_every = 4096) ?journal_dir ?(seg_limit = 65536)
    ?(source_desc = "") ?replan_deadline () =
  if max_live < 1 then invalid_arg "Service.config: max_live must be positive";
  if queue_cap < 0 then invalid_arg "Service.config: negative queue_cap";
  if checkpoint_every < 1 then
    invalid_arg "Service.config: checkpoint_every must be positive";
  if seg_limit < 1 then invalid_arg "Service.config: seg_limit must be positive";
  let nm = Platform.num_machines platform in
  List.iter
    (fun (e : Fault.edge) ->
      if e.machine >= nm then
        invalid_arg "Service.config: fault trace references unknown machine")
    faults;
  { platform; rule; policy; max_live; queue_cap;
    faults = Fault.normalize faults; loss; horizon; checkpoint;
    checkpoint_every; journal_dir; seg_limit; source_desc; replan_deadline }

let fingerprint cfg =
  let b = Buffer.create 256 in
  let nm = Platform.num_machines cfg.platform in
  (* The horizon and the checkpoint cadence are deliberately absent: a
     resumed daemon may push the horizon further or checkpoint at a
     different rhythm without invalidating the state it restores. *)
  Buffer.add_string b
    (Printf.sprintf "v1 %s %s live=%d cap=%d loss=%s seglim=%d src=%s m=%d d=%d"
       (rule_name cfg.rule) (policy_name cfg.policy) cfg.max_live cfg.queue_cap
       (match cfg.loss with Fault.Crash -> "crash" | Fault.Pause -> "pause")
       cfg.seg_limit cfg.source_desc nm
       (Platform.num_databanks cfg.platform));
  for m = 0 to nm - 1 do
    let mc = Platform.machine cfg.platform m in
    Buffer.add_string b (Printf.sprintf " %.17g:" mc.Machine.speed);
    Array.iter (fun h -> Buffer.add_char b (if h then '1' else '0')) mc.Machine.databanks
  done;
  List.iter
    (fun (e : Fault.edge) ->
      Buffer.add_string b
        (Printf.sprintf " f%.17g/%d/%b" e.Fault.time e.Fault.machine e.Fault.up))
    cfg.faults;
  Fsio.fnv64 (Buffer.contents b)

(* ---- outcomes and reports ---------------------------------------------- *)

type outcome = Drained | Horizon_reached | Killed

type metrics = {
  completed : int;
  sum_stretch : float;
  max_stretch : float;
  sum_flow : float;
  max_flow : float;
  makespan : float;
}

type report = {
  outcome : outcome;
  metrics : metrics;
  admitted : int;
  enqueued : int;
  dropped : int;
  shed : int;
  peak_live : int;
  peak_queue : int;
  events : int;
  replans : int;
  checkpoints : int;
  deadline_misses : int;
  lost_work : float;
  final_time : float;
  source_cursor : int;
  replan_p99_s : float;
}

exception Stalled of { time : float; live : int; queued : int }

let c_events = Obs.Counter.make "serve.events"
let c_replans = Obs.Counter.make "serve.replans"
let c_segments = Obs.Counter.make "serve.segments"
let c_admitted = Obs.Counter.make "serve.admitted"
let c_enqueued = Obs.Counter.make "serve.enqueued"
let c_dropped = Obs.Counter.make "serve.dropped"
let c_shed = Obs.Counter.make "serve.shed"
let c_checkpoints = Obs.Counter.make "serve.checkpoints"

(* ---- daemon state ------------------------------------------------------ *)

(* The pending queue lives in scalar ring-buffer columns on the daemon
   (qe/qr/qw/qd below): a consed item record per queued job would put
   the admission path on the allocator. *)

(* Replan latency histogram: 16 log-spaced bins per decade over
   [1e-8 s, 1 s), plus an overflow bin — fixed memory, any run length. *)
let lat_bins = 129

let lat_bin dur =
  if dur <= 1e-8 then 0
  else
    let i = int_of_float (16.0 *. (log10 dur +. 8.0)) in
    if i < 0 then 0 else if i >= lat_bins then lat_bins - 1 else i

let lat_upper i = 10.0 ** ((float_of_int (i + 1) /. 16.0) -. 8.0)

(* Indices into the metric accumulator cells ([acc] below).  An array,
   not mutable float fields: a float field of a mixed record boxes on
   every store, and these are written on every completion. *)
let m_sum_stretch = 0
let m_max_stretch = 1
let m_sum_flow = 2
let m_max_flow = 3
let m_makespan = 4

(* The daemon is a driver over {!Kernel}: the kernel owns the clock, the
   fluid columns (remaining/rates/support, sized by slot), the live
   plan, the fault trace and the crash-loss bookkeeping — the one
   advance arithmetic shared with [Sim], which is what makes the daemon
   bit-exact against batch simulation of the same stream.  The daemon
   itself owns what is service-specific: the slot pool and its recycling,
   admission (queue/drop/shed), checkpoints and journal segments, and the
   streaming metric accumulators.  Planning is List_sched's rule engine
   over slot ids — the same engine, on the same kernel, that Sim drives
   over job ids. *)
type daemon = {
  cfg : config;
  mutable src : Source.t;             (* swapped in by restore *)
  kern : Kernel.t;                    (* slot-addressed: capacity max_live *)
  nm : int;
  nd : int;
  (* slot pool: the only per-job storage, recycled on completion (the
     fluid columns live in the kernel, also slot-addressed) *)
  ext : int array;                    (* external job id; -1 = free *)
  release : float array;
  db : int array;
  free_slots : int Vec.t;             (* stack; top = next assigned *)
  mutable live : int;
  eng : List_sched.engine;            (* keyed on release/db/kernel *)
  cmp_ext : int -> int -> int;        (* ascending external id; built once
                                         so the per-step sort closes over
                                         nothing (a closure literal would
                                         allocate at every batch) *)
  (* pending queue: a FIFO ring of [queue_cap] scalar cells *)
  qe : int array;                     (* external ids *)
  qr : float array;                   (* release dates *)
  qw : float array;                   (* sizes *)
  qd : int array;                     (* databanks *)
  mutable q_head : int;
  mutable q_len : int;
  adm : float array;                  (* admission staging: 0 = release,
                                         1 = size.  Floats passed to the
                                         non-inlined admit/enqueue helpers
                                         as arguments would box at every
                                         call boundary. *)
  (* accounting *)
  mutable batch : int;                (* events of the step in progress (a
                                         field, not a [ref] threaded through
                                         the helpers: a ref cell would
                                         allocate at every event) *)
  mutable events : int;
  mutable replans : int;
  mutable since_ckpt : int;
  mutable checkpoints : int;
  mutable completed : int;
  acc : float array;                  (* metric accumulators, see m_* above *)
  mutable admitted : int;
  mutable enqueued : int;
  mutable dropped : int;
  mutable shed : int;
  mutable peak_live : int;
  mutable peak_queue : int;
  mutable deadline_misses : int;
  (* journal: records are encoded into [jw] as they are made and
     appended to on-disk segments at each checkpoint *)
  journaling : bool;                  (* [cfg.journal_dir] is set *)
  jw : J.Writer.t;                    (* the window since the last flush *)
  rolls : int Vec.t;                  (* byte offsets in [jw] where a new
                                         segment starts *)
  mutable seg_index : int;            (* segment of the last record *)
  mutable seg_lines : int;            (* records in it *)
  (* checkpoints *)
  fp : string;                        (* [fingerprint cfg] *)
  ckw : J.Writer.t;                   (* payload, reused *)
  (* wall-clock observables: never checkpointed *)
  lat_hist : int array;
  mutable lat_count : int;
}

let make_daemon cfg src =
  let platform = cfg.platform in
  let nm = Platform.num_machines platform in
  let nd = Platform.num_databanks platform in
  let k = cfg.max_live in
  let free_slots = Vec.create () in
  for s = k - 1 downto 0 do
    Vec.push free_slots s
  done;
  let ext = Array.make k (-1) in
  let release = Array.make k 0.0 and db = Array.make k 0 in
  let kern =
    Kernel.create ~loss:cfg.loss
      ~speeds:
        (Array.init nm (fun m -> (Platform.machine platform m).Machine.speed))
      k
  in
  (* The kernel's sliver yardstick stays 0.0: a stream has no total-work
     yardstick, so the daemon's sliver rule is the per-job [1e-9 × size]
     (see Kernel.advance — [fmax size 0.0 = size] bit for bit). *)
  kern.Kernel.trace <- Fault.merge cfg.faults (Fault.of_platform platform);
  { cfg; src; kern; nm; nd; ext; release; db; free_slots; live = 0;
    eng =
      List_sched.engine ~rule:(flat_rule cfg.rule) ~platform ~capacity:k
        ~release ~db;
    cmp_ext = (fun a b -> compare ext.(a) ext.(b));
    (* [max 1]: a zero-cap queue still needs well-formed (empty) ring
       columns *)
    qe = Array.make (max 1 cfg.queue_cap) (-1);
    qr = Array.make (max 1 cfg.queue_cap) 0.0;
    qw = Array.make (max 1 cfg.queue_cap) 0.0;
    qd = Array.make (max 1 cfg.queue_cap) 0;
    q_head = 0; q_len = 0;
    adm = Array.make 2 0.0;
    batch = 0; events = 0; replans = 0;
    (* force an initial checkpoint on the first loop iteration, so even
       an instantly-killed daemon leaves a resumable state behind *)
    since_ckpt = cfg.checkpoint_every;
    checkpoints = 0; completed = 0;
    acc = Array.make 5 0.0;
    admitted = 0; enqueued = 0; dropped = 0; shed = 0;
    peak_live = 0; peak_queue = 0; deadline_misses = 0;
    journaling = cfg.journal_dir <> None;
    jw = J.Writer.create (); rolls = Vec.create ();
    seg_index = 0; seg_lines = 0;
    fp = fingerprint cfg; ckw = J.Writer.create ();
    lat_hist = Array.make lat_bins 0; lat_count = 0 }

(* The live plan as an allocation list, slots mapped to external
   ids, optionally dropping crashing machines.  Built back to front so
   the list comes out in the buffer's canonical order — only ever
   materialized for the journal (cold path). *)
let plan_ext_allocation ?(skip_crashing = false) d =
  let b = d.kern.Kernel.plan in
  let rec entries i e acc =
    if e < 0 then acc
    else
      entries i (e - 1)
        ((d.ext.(Pb.entry_job b i e), Pb.entry_share b i e) :: acc)
  in
  let rec go i acc =
    if i < 0 then acc
    else
      let m = Pb.run_machine b i in
      if skip_crashing && d.kern.Kernel.crashing.(m) then go (i - 1) acc
      else go (i - 1) ((m, entries i (Pb.run_length b i - 1) []) :: acc)
  in
  go (Pb.runs b - 1) []

(* ---- journal segments -------------------------------------------------- *)

let seg_path dir i = Filename.concat dir (Printf.sprintf "seg-%06d.jsonl" i)

let segment_index_of name = Scanf.sscanf_opt name "seg-%06d.jsonl%!" Fun.id

let segment_files ~dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> segment_index_of f <> None)
  |> List.sort compare
  |> List.map (Filename.concat dir)

let read_journal ~dir =
  segment_files ~dir
  |> List.concat_map (fun path -> J.read_jsonl_strict ~path)

(* Journal one record: encode it into the window at once, so nothing
   boxed outlives the step that made it, and hand it to the domain's
   sink.  The roll rule lives here: a record that finds the current
   segment holding [seg_limit] lines opens the next one, and the window
   notes the byte offset where that segment starts.  The roll points are
   a pure function of the record sequence, so an uninterrupted run and a
   resumed one cut identical segments. *)
let log d e =
  if d.seg_lines >= d.cfg.seg_limit then begin
    Vec.push d.rolls (Buffer.length (J.Writer.buffer d.jw));
    d.seg_index <- d.seg_index + 1;
    d.seg_lines <- 0
  end;
  J.Writer.line d.jw e;
  d.seg_lines <- d.seg_lines + 1;
  J.forward e

let append_segment dir i write =
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_append; Open_binary ] 0o644
      (seg_path dir i)
  in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc)

(* Append the window's bytes to the segment files and empty it.  Only a
   window that crosses a roll is copied out of the buffer, to be cut at
   the roll offsets. *)
let flush_journal d =
  match d.cfg.journal_dir with
  | None -> ()
  | Some dir ->
    let b = J.Writer.buffer d.jw in
    let nrolls = Vec.length d.rolls in
    if nrolls = 0 then begin
      if Buffer.length b > 0 then
        append_segment dir d.seg_index (fun oc -> Buffer.output_buffer oc b)
    end
    else begin
      let s = Buffer.contents b in
      let first = d.seg_index - nrolls in
      let rec go r pos =
        let stop = if r < nrolls then Vec.get d.rolls r else String.length s in
        (* empty only when the window's first record rolled *)
        if stop > pos then
          append_segment dir (first + r) (fun oc ->
              output_substring oc s pos (stop - pos));
        if r < nrolls then go (r + 1) stop
      in
      go 0 0
    end;
    Buffer.clear b;
    Vec.clear d.rolls

(* ---- checkpoint codec -------------------------------------------------- *)

let ckpt_magic = "gripps-ckpt"
let ckpt_version = 1

let corrupt path = Printf.ksprintf (fun m -> failwith (path ^ ": " ^ m))

(* A cursor over a checkpoint payload, and the callback that re-opens
   the source at the position the payload records. *)
type reader = {
  path : string;
  text : string;
  mutable pos : int;
  mutable line : int;                 (* file line of the record being read *)
  make_source : cursor:int -> clock:float -> Source.t;
}

(* One description of the payload, run in two directions: [Put] writes
   the daemon's fields into the buffer, [Get] reads them back into a
   fresh daemon. *)
type io = Put of J.Writer.t | Get of reader

let bad r = Printf.ksprintf (fun m -> corrupt r.path "line %d: %s" r.line m)

let at_end r = r.pos >= String.length r.text

let skip r c what =
  if at_end r || r.text.[r.pos] <> c then bad r "%s" what;
  r.pos <- r.pos + 1

let token r =
  let start = r.pos in
  while not (at_end r || r.text.[r.pos] = ' ' || r.text.[r.pos] = '\n') do
    r.pos <- r.pos + 1
  done;
  String.sub r.text start (r.pos - start)

(* A record is its tag, one space before each field, and a newline. *)
let tag io t =
  match io with
  | Put w -> Buffer.add_string (J.Writer.buffer w) t
  | Get r ->
    if at_end r then bad r "truncated checkpoint: missing '%s' record" t;
    let found = token r in
    if found <> t then bad r "expected '%s', found '%s'" t found

let nl io =
  match io with
  | Put w -> Buffer.add_char (J.Writer.buffer w) '\n'
  | Get r -> skip r '\n' "record runs on"; r.line <- r.line + 1

let field r = skip r ' ' "record ends early"; token r

(* Fields are exchanges: [Put] writes [v] (the bytes [Printf]'s ["%d"]
   and ["%.17g"] wrote) and returns it; [Get] returns what it reads,
   refused outside the field's domain. *)
let int_in io ~lo ~hi v =
  match io with
  | Put w -> Buffer.add_char (J.Writer.buffer w) ' '; J.Writer.int w v; v
  | Get r ->
    let s = field r in
    (match int_of_string_opt s with
     | Some i when lo <= i && i <= hi -> i
     | Some _ -> bad r "%s outside [%d, %d]" s lo hi
     | None -> bad r "bad integer %S" s)

let nat io v = int_in io ~lo:0 ~hi:max_int v
let index io n v = int_in io ~lo:0 ~hi:(n - 1) v
let bit io b = int_in io ~lo:0 ~hi:1 (Bool.to_int b) = 1

let float io x =
  match io with
  | Put w -> Buffer.add_char (J.Writer.buffer w) ' '; J.Writer.float17 w x; x
  | Get r ->
    let s = field r in
    (match float_of_string_opt s with
     | Some f -> f
     | None -> bad r "bad float %S" s)

(* A float read back must lie in [lo, hi]: NaN never does, and a bound
   of [max_float] refuses the infinities. *)
let float_in io what ~lo ~hi x =
  let t = float io x in
  match io with
  | Get r when not (lo <= t && t <= hi) ->
    bad r "%s %g outside [%g, %g]" what t lo hi
  | Get _ | Put _ -> t

let tiniest = Float.succ 0.0

let date io x = float_in io "date" ~lo:0.0 ~hi:max_float x
let amount io x = float_in io "amount" ~lo:0.0 ~hi:max_float x
let size io x = float_in io "size" ~lo:tiniest ~hi:max_float x

(* The payload, record by record in file order.  Each field names its
   domain: counts >= 0, with [live], [free] and [queue] at most their
   capacity; machine, slot and databank indices in range; dates, metric
   accumulators and lost work finite and >= 0; sizes finite and > 0;
   remaining work in [0, size], as it only decreases from the size;
   shares in (0, 1]; fault times >= 0, where +inf is a repair that never
   comes.  Rules across records are [restore]'s, after the pass. *)
let codec io d =
  let k = d.kern and cap = d.cfg.max_live in
  let put = match io with Put _ -> true | Get _ -> false in
  tag io "now"; k.Kernel.clock.(0) <- date io k.Kernel.clock.(0); nl io;
  tag io "counts"; d.events <- nat io d.events; d.replans <- nat io d.replans;
  d.checkpoints <- nat io d.checkpoints;
  d.deadline_misses <- nat io d.deadline_misses; nl io;
  tag io "metrics"; d.completed <- nat io d.completed;
  for i = m_sum_stretch to m_makespan do d.acc.(i) <- amount io d.acc.(i) done;
  k.Kernel.lost_acc.(0) <- amount io k.Kernel.lost_acc.(0); nl io;
  tag io "admission";
  d.admitted <- nat io d.admitted; d.enqueued <- nat io d.enqueued;
  d.dropped <- nat io d.dropped; d.shed <- nat io d.shed;
  d.peak_live <- nat io d.peak_live; d.peak_queue <- nat io d.peak_queue;
  nl io;
  tag io "source";
  let cursor = nat io (Source.cursor d.src) in
  let clock = date io (Source.clock d.src) in
  (match io with
   | Put _ -> ()
   | Get r ->
     (d.src <-
        try r.make_source ~cursor ~clock
        with Invalid_argument m ->
          bad r "source refuses cursor %d: %s" cursor m);
     if Source.cursor d.src <> cursor then
       bad r "resumed source reports cursor %d, checkpoint says %d"
         (Source.cursor d.src) cursor);
  nl io;
  tag io "up";
  for m = 0 to d.nm - 1 do k.Kernel.up.(m) <- bit io k.Kernel.up.(m) done;
  nl io;
  tag io "faults";
  let nfaults = nat io (List.length k.Kernel.trace) in
  nl io;
  let edge (e : Fault.edge) =
    tag io "fault";
    let time = float_in io "fault time" ~lo:0.0 ~hi:infinity e.Fault.time in
    let machine = index io d.nm e.Fault.machine in
    let up = bit io e.Fault.up in
    nl io;
    if put then e else { Fault.time; machine; up }
  in
  if put then List.iter (fun e -> ignore (edge e)) k.Kernel.trace
  else
    k.Kernel.trace <-
      List.init nfaults (fun _ ->
          edge { Fault.time = 0.0; machine = 0; up = true });
  tag io "live"; d.live <- int_in io ~lo:0 ~hi:cap d.live; nl io;
  let slot s =
    tag io "slot";
    let s = index io cap s in
    d.ext.(s) <- nat io d.ext.(s);
    d.release.(s) <- date io d.release.(s);
    let w = size io k.Kernel.size.(s) in
    k.Kernel.size.(s) <- w;
    d.db.(s) <- index io d.nd d.db.(s);
    k.Kernel.remaining.(s) <-
      float_in io "remaining work" ~lo:0.0 ~hi:w k.Kernel.remaining.(s);
    nl io
  in
  if put then for s = 0 to cap - 1 do if d.ext.(s) >= 0 then slot s done
  else for _ = 1 to d.live do slot 0 done;
  tag io "free";
  let nfree = int_in io ~lo:0 ~hi:cap (Vec.length d.free_slots) in
  (* A fresh daemon's stack holds every slot: cut it to the count. *)
  while Vec.length d.free_slots > nfree do
    ignore (Vec.pop_exn d.free_slots)
  done;
  for i = 0 to nfree - 1 do
    Vec.set d.free_slots i (index io cap (Vec.get d.free_slots i))
  done;
  nl io;
  (* A fresh daemon's ring starts at cell 0. *)
  tag io "queue"; d.q_len <- int_in io ~lo:0 ~hi:d.cfg.queue_cap d.q_len;
  nl io;
  for i = 0 to d.q_len - 1 do
    let j = (d.q_head + i) mod Array.length d.qe in
    tag io "qitem";
    d.qe.(j) <- nat io d.qe.(j);
    d.qr.(j) <- date io d.qr.(j);
    d.qw.(j) <- size io d.qw.(j);
    d.qd.(j) <- index io d.nd d.qd.(j);
    nl io
  done;
  (* Runs in canonical order, so a fresh buffer ([grab_order = false])
     reads back in the order the original run's accessors used. *)
  let plan = k.Kernel.plan in
  tag io "plan";
  let runs = nat io (Pb.runs plan) in
  nl io;
  for i = 0 to runs - 1 do
    tag io "pentry";
    let m = index io d.nm (if put then Pb.run_machine plan i else 0) in
    let len = nat io (if put then Pb.run_length plan i else 0) in
    if not put then Pb.begin_machine plan m;
    for e = 0 to len - 1 do
      let s = index io cap (if put then Pb.entry_job plan i e else 0) in
      let share =
        float_in io "share" ~lo:tiniest ~hi:1.0
          (if put then Pb.entry_share plan i e else 0.0)
      in
      if not put then Pb.push_share plan ~job:s ~share
    done;
    nl io
  done;
  tag io "jseg"; d.seg_index <- nat io d.seg_index;
  d.seg_lines <- nat io d.seg_lines; nl io

let write_checkpoint d =
  match d.cfg.checkpoint with
  | None -> d.since_ckpt <- 0
  | Some path ->
    d.checkpoints <- d.checkpoints + 1;
    Obs.Counter.incr c_checkpoints;
    Buffer.clear (J.Writer.buffer d.ckw);
    codec (Put d.ckw) d;
    let payload = Buffer.contents (J.Writer.buffer d.ckw) in
    let header =
      Printf.sprintf "%s %d %s %d %s\n" ckpt_magic ckpt_version d.fp
        (String.length payload) (Fsio.fnv64 payload)
    in
    Fsio.write_atomic ~path (header ^ payload);
    d.since_ckpt <- 0

(* ---- checkpoint restore ------------------------------------------------ *)

let restore cfg path make_source =
  let raw =
    try Fsio.read_file path
    with Sys_error m -> failwith ("cannot read checkpoint: " ^ m)
  in
  let header, payload =
    match String.index_opt raw '\n' with
    | None -> corrupt path "not a checkpoint (no header line)"
    | Some i ->
      (String.sub raw 0 i, String.sub raw (i + 1) (String.length raw - i - 1))
  in
  (match String.split_on_char ' ' header with
   | [ magic; version; fp; len; sum ] ->
     if magic <> ckpt_magic then corrupt path "not a checkpoint (bad magic %S)" magic;
     if int_of_string_opt version <> Some ckpt_version then
       corrupt path "unsupported checkpoint version %s" version;
     if fp <> fingerprint cfg then
       corrupt path
         "checkpoint was written under a different configuration (fingerprint %s, ours %s)"
         fp (fingerprint cfg);
     (match int_of_string_opt len with
      | Some l when l = String.length payload -> ()
      | _ -> corrupt path "torn checkpoint: payload length mismatch");
     if sum <> Fsio.fnv64 payload then corrupt path "checkpoint checksum mismatch"
   | _ -> corrupt path "not a checkpoint (malformed header)");
  (* The source is a placeholder until the pass reaches its record. *)
  let d = make_daemon cfg (Source.of_list []) in
  let r = { path; text = payload; pos = 0; line = 2; make_source } in
  codec (Get r) d;
  if not (at_end r) then
    corrupt path "trailing garbage after checkpoint payload";
  let k = d.kern and cap = cfg.max_live in
  (* Each slot record occupies its slot: a slot named twice leaves fewer
     occupied than [live]. *)
  if Array.fold_left (fun n e -> if e >= 0 then n + 1 else n) 0 d.ext <> d.live
  then corrupt path "two slot records name one slot";
  let listed = Array.make cap false in
  Vec.iter
    (fun s ->
      if d.ext.(s) >= 0 || listed.(s) then
        corrupt path "free stack lists slot %d twice or while occupied" s;
      listed.(s) <- true)
    d.free_slots;
  if Vec.length d.free_slots + d.live <> cap then
    corrupt path "slot accounting mismatch (%d free + %d live <> %d)"
      (Vec.length d.free_slots) d.live cap;
  for i = 0 to Pb.runs k.Kernel.plan - 1 do
    for e = 0 to Pb.run_length k.Kernel.plan i - 1 do
      if d.ext.(Pb.entry_job k.Kernel.plan i e) < 0 then
        corrupt path "plan references a free slot"
    done
  done;
  (* Rebuild the engine's heaps from slot data: the plan walk reads only
     heap roots — the ascending (key, slot) minimum of each databank —
     so the rebuilt heaps schedule identically whatever the original
     insertion history was.  The kernel then reloads the rates in the
     canonical order the original run's replan used. *)
  for s = 0 to cap - 1 do
    if d.ext.(s) >= 0 then List_sched.add d.eng k s
  done;
  Kernel.load_rates k;
  (* The restored run must not re-fire the checkpoint that produced this
     state: the writer reset its cadence exactly here. *)
  d.since_ckpt <- 0;
  d

(* Discard journal records the killed run appended past its last
   checkpoint: segments after the recorded one are deleted, the recorded
   one is truncated to the recorded line count. *)
let truncate_segments d =
  match d.cfg.journal_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then
      failwith (dir ^ ": journal directory missing at resume");
    Array.iter
      (fun f ->
        match segment_index_of f with
        | Some i when i > d.seg_index -> Sys.remove (Filename.concat dir f)
        | Some _ | None -> ())
      (Sys.readdir dir);
    let path = seg_path dir d.seg_index in
    if d.seg_lines = 0 then begin
      if Sys.file_exists path then Sys.remove path
    end
    else begin
      if not (Sys.file_exists path) then
        failwith (Printf.sprintf "%s: checkpoint expects %d journal records, file missing"
                    path d.seg_lines);
      let lines =
        String.split_on_char '\n' (Fsio.read_file path)
        |> List.filter (fun l -> l <> "")
      in
      if List.length lines < d.seg_lines then
        failwith (Printf.sprintf "%s: checkpoint expects %d journal records, found %d"
                    path d.seg_lines (List.length lines));
      let keep = List.filteri (fun i _ -> i < d.seg_lines) lines in
      Fsio.write_atomic ~path (String.concat "\n" keep ^ "\n")
    end

(* ---- admission --------------------------------------------------------- *)

(* The job's release and size arrive staged in [d.adm] (cells 0/1)
   rather than as arguments: float parameters of a non-inlined call box
   at the boundary, and admission runs once per job. *)
let admit_live d ~ext ~databank =
  (* [pop_exn]: the caller checks [live < max_live], and [pop] would
     allocate a [Some] per admission. *)
  let s = Vec.pop_exn d.free_slots in
  d.ext.(s) <- ext;
  d.release.(s) <- d.adm.(0);
  d.kern.Kernel.size.(s) <- d.adm.(1);
  d.db.(s) <- databank;
  d.kern.Kernel.remaining.(s) <- d.adm.(1);
  List_sched.add d.eng d.kern s;
  d.live <- d.live + 1;
  if d.live > d.peak_live then d.peak_live <- d.live;
  d.admitted <- d.admitted + 1;
  Obs.Counter.incr c_admitted;
  if d.journaling then
    log d
      (J.Sim_event
         { time = d.kern.Kernel.clock.(0); kind = J.Arrival; subject = ext })

(* Like {!admit_live}, reads the newcomer's release/size from [d.adm]. *)
let enqueue d ~ext ~db =
  let i = (d.q_head + d.q_len) mod Array.length d.qe in
  d.qe.(i) <- ext;
  d.qr.(i) <- d.adm.(0);
  d.qw.(i) <- d.adm.(1);
  d.qd.(i) <- db;
  d.q_len <- d.q_len + 1;
  if d.q_len > d.peak_queue then d.peak_queue <- d.q_len;
  d.enqueued <- d.enqueued + 1;
  Obs.Counter.incr c_enqueued;
  if d.journaling then
    log d (J.Note { key = "serve.enqueue"; value = string_of_int ext })

(* Shed: evict the largest pending job (ties to the most recent) to make
   room for the newcomer.  Recursive scan with explicit arguments (a
   fold closure or ref cells would allocate per shed event); the gap
   left by the victim closes by shifting the tail one slot, preserving
   FIFO order of the survivors. *)
let shed_largest d =
  let cap = Array.length d.qe in
  let rec scan i best_i best_s =
    if i >= d.q_len then best_i
    else
      let j = (d.q_head + i) mod cap in
      if d.qw.(j) >= best_s then scan (i + 1) i d.qw.(j)
      else scan (i + 1) best_i best_s
  in
  let vi = scan 0 (-1) neg_infinity in
  let victim_ext = d.qe.((d.q_head + vi) mod cap) in
  for i = vi to d.q_len - 2 do
    let dst = (d.q_head + i) mod cap and src = (d.q_head + i + 1) mod cap in
    d.qe.(dst) <- d.qe.(src);
    d.qr.(dst) <- d.qr.(src);
    d.qw.(dst) <- d.qw.(src);
    d.qd.(dst) <- d.qd.(src)
  done;
  d.q_len <- d.q_len - 1;
  d.shed <- d.shed + 1;
  Obs.Counter.incr c_shed;
  if d.journaling then
    log d (J.Note { key = "serve.shed"; value = string_of_int victim_ext })

(* Consume every due source item the policy allows.  Each consumed item
   becomes exactly one event (admission, enqueue, drop or shed+enqueue),
   so the loop always makes progress.  Recursive rather than a
   [while]-with-[ref] loop: the ref cell would allocate at every step. *)
let rec pop_arrivals d =
  if
    (not (Source.exhausted d.src))
    && Source.next_release d.src <= d.kern.Kernel.clock.(0) +. 1e-12
  then begin
    let room = d.live < d.cfg.max_live || d.q_len < d.cfg.queue_cap in
    if not (d.cfg.policy = Block && not room) then begin
      (* Scalar lookahead reads ([Source.peek] would allocate an item
         per admitted job); release and size go straight into the
         admission staging cells. *)
      let ext = Source.cursor d.src in
      let databank = Source.next_databank d.src in
      (* Checked whatever becomes of the job: none reaches a checkpoint. *)
      if databank < 0 || databank >= d.nd then
        Printf.ksprintf failwith "service: job %d requests unknown databank %d"
          ext databank;
      if List_sched.replicas d.eng databank = 0 then
        Printf.ksprintf failwith
          "service: job %d requests databank %d with no replica" ext databank;
      d.adm.(0) <- Source.next_release d.src;
      d.adm.(1) <- Source.next_size d.src;
      Source.drop d.src;
      if d.live < d.cfg.max_live then admit_live d ~ext ~databank
      else if d.q_len < d.cfg.queue_cap then enqueue d ~ext ~db:databank
      else begin
        match d.cfg.policy with
        | Block -> assert false (* no room: handled above *)
        | Drop ->
          d.dropped <- d.dropped + 1;
          Obs.Counter.incr c_dropped;
          if d.journaling then
            log d (J.Note { key = "serve.drop"; value = string_of_int ext })
        | Shed when d.q_len > 0 ->
          shed_largest d;
          enqueue d ~ext ~db:databank
        | Shed ->
          (* nothing pending to evict (queue_cap = 0): shedding
             degenerates to dropping the newcomer *)
          d.dropped <- d.dropped + 1;
          Obs.Counter.incr c_dropped;
          if d.journaling then
            log d (J.Note { key = "serve.drop"; value = string_of_int ext })
      end;
      d.batch <- d.batch + 1;
      pop_arrivals d
    end
  end

(* ---- scheduling -------------------------------------------------------- *)

let record_latency d dur =
  d.lat_hist.(lat_bin dur) <- d.lat_hist.(lat_bin dur) + 1;
  d.lat_count <- d.lat_count + 1;
  match d.cfg.replan_deadline with
  | Some dl when dur > dl -> d.deadline_misses <- d.deadline_misses + 1
  | Some _ | None -> ()

let replan d =
  let k = d.kern in
  (* Replan latency is sampled only when a watchdog deadline asked for
     it: [Unix.gettimeofday] boxes its result, and two calls per replan
     would dominate the daemon's steady-state allocation. *)
  let sample = d.cfg.replan_deadline <> None in
  let t0 = if sample then Unix.gettimeofday () else 0.0 in
  (* Re-key what the last segment advanced (the old plan's support is
     still in [rated]), then walk the heap roots into the kernel's plan
     buffer.  Slot ids stand in for job ids in the tiebreak; slot
     assignment is itself deterministic (and checkpointed), so the plan
     is reproducible across kill and resume. *)
  List_sched.rekey d.eng k;
  List_sched.plan d.eng k k.Kernel.plan;
  (* The kernel zeroes the old support and reloads the rates from the
     buffer in canonical order — the same order the old list loader
     used, float summation included. *)
  Kernel.load_rates k;
  d.replans <- d.replans + 1;
  Obs.Counter.incr c_replans;
  if d.journaling then
    log d
      (J.Replan
         { time = k.Kernel.clock.(0); scheduler = rule_name d.cfg.rule;
           allocation = plan_ext_allocation d; horizon = None });
  if sample then record_latency d (Unix.gettimeofday () -. t0)

(* ---- the event step ---------------------------------------------------- *)

(* Advance the fluid plan to the staged segment end (the kernel's
   [scratch.(1)]), then process the event batch due there (completions,
   fault edges, promotions, admissions) and replan.  The fluid advance
   itself — crash-loss, completions, the sliver rule — is
   {!Kernel.advance}, the same code [Sim] runs; only the batch
   processing around it is service-specific. *)
let step d =
  let k = d.kern in
  let t_next = k.Kernel.scratch.(1) in
  let dt = t_next -. k.Kernel.clock.(0) in
  Kernel.begin_step k;
  Kernel.crash_scan k;
  Kernel.load_lost_rates k;
  if dt > 0.0 && Kernel.any_live_run k 0 then begin
    Obs.Counter.incr c_segments;
    if d.journaling then
      log d
        (J.Segment
           { start_time = k.Kernel.clock.(0); end_time = t_next;
             shares = plan_ext_allocation ~skip_crashing:true d })
  end;
  Kernel.advance k;
  (* Simultaneous completions retire in ascending external-id order —
     the slot pool recycles ids, so slot order is not arrival order.
     [insertion_sort]: in place, nothing allocated ([Vec.sort] copies),
     and the resulting order is the same (external ids are distinct). *)
  Vec.insertion_sort d.cmp_ext k.Kernel.completions;
  k.Kernel.clock.(0) <- t_next;
  d.batch <- 0;
  for i = 0 to Vec.length k.Kernel.completions - 1 do
    let s = Vec.get k.Kernel.completions i in
    let e = d.ext.(s) and t = k.Kernel.ctimes.(s) in
    let flow = t -. d.release.(s) in
    let stretch = flow /. k.Kernel.size.(s) in
    d.completed <- d.completed + 1;
    d.acc.(m_sum_flow) <- d.acc.(m_sum_flow) +. flow;
    if flow > d.acc.(m_max_flow) then d.acc.(m_max_flow) <- flow;
    d.acc.(m_sum_stretch) <- d.acc.(m_sum_stretch) +. stretch;
    if stretch > d.acc.(m_max_stretch) then d.acc.(m_max_stretch) <- stretch;
    if t > d.acc.(m_makespan) then d.acc.(m_makespan) <- t;
    if d.journaling then
      log d (J.Sim_event { time = t; kind = J.Completion; subject = e });
    List_sched.remove d.eng s;
    d.ext.(s) <- -1;
    Vec.push d.free_slots s;
    d.live <- d.live - 1;
    d.batch <- d.batch + 1
  done;
  Kernel.pop_faults k;
  for i = 0 to Vec.length k.Kernel.flips - 1 do
    let v = Vec.get k.Kernel.flips i in
    if d.journaling then
      log d
        (J.Sim_event
           { time = k.Kernel.clock.(0);
             kind = (if v land 1 = 1 then J.Recovery else J.Failure);
             subject = v lsr 1 });
    d.batch <- d.batch + 1
  done;
  (* Queued jobs are strictly older than anything still in the source:
     promote them into freed slots first. *)
  while d.live < d.cfg.max_live && d.q_len > 0 do
    let h = d.q_head in
    d.q_head <- (h + 1) mod Array.length d.qe;
    d.q_len <- d.q_len - 1;
    d.adm.(0) <- d.qr.(h);
    d.adm.(1) <- d.qw.(h);
    admit_live d ~ext:d.qe.(h) ~databank:d.qd.(h);
    d.batch <- d.batch + 1
  done;
  pop_arrivals d;
  d.events <- d.events + d.batch;
  d.since_ckpt <- d.since_ckpt + d.batch;
  Obs.Counter.add c_events d.batch;
  replan d

(* ---- main loop --------------------------------------------------------- *)

let p99_latency d =
  if d.lat_count = 0 then 0.0
  else begin
    let target = int_of_float (ceil (0.99 *. float_of_int d.lat_count)) in
    let acc = ref 0 and bin = ref 0 in
    (try
       for i = 0 to lat_bins - 1 do
         acc := !acc + d.lat_hist.(i);
         if !acc >= target then begin
           bin := i;
           raise Exit
         end
       done
     with Exit -> ());
    lat_upper !bin
  end

let report_of d outcome =
  { outcome;
    metrics =
      { completed = d.completed; sum_stretch = d.acc.(m_sum_stretch);
        max_stretch = d.acc.(m_max_stretch); sum_flow = d.acc.(m_sum_flow);
        max_flow = d.acc.(m_max_flow); makespan = d.acc.(m_makespan) };
    admitted = d.admitted; enqueued = d.enqueued; dropped = d.dropped;
    shed = d.shed; peak_live = d.peak_live; peak_queue = d.peak_queue;
    events = d.events; replans = d.replans; checkpoints = d.checkpoints;
    deadline_misses = d.deadline_misses;
    lost_work = d.kern.Kernel.lost_acc.(0);
    final_time = d.kern.Kernel.clock.(0); source_cursor = Source.cursor d.src;
    replan_p99_s = p99_latency d }

let loop d ~stop_after_events =
  let k = d.kern in
  let stop = Option.value ~default:max_int stop_after_events in
  let outcome = ref None in
  while !outcome = None do
    if d.events >= stop then outcome := Some Killed
    else begin
      (* The checkpoint lands at a post-replan quiescent point: the live
         plan, heap keys and metric accumulators are all current, so no
         in-flight information exists outside the serialized state. *)
      if
        (d.cfg.checkpoint <> None || d.cfg.journal_dir <> None)
        && d.since_ckpt >= d.cfg.checkpoint_every
      then begin
        flush_journal d;
        write_checkpoint d
      end;
      (* Next-date minimum: the kernel folds the earliest plan completion
         into its scratch cell (a [float ref] would box on every store),
         and the arrival/fault dates continue the fold.  All dates are
         non-NaN, so it computes exactly
         [min next_completion (min arrival_t fault_t)]. *)
      Kernel.fold_next_completion k;
      let arrival_t =
        if Source.exhausted d.src then infinity
        else if
          d.cfg.policy = Block && d.live >= d.cfg.max_live
          && d.q_len >= d.cfg.queue_cap
        then infinity
        else begin
          (* Inline max over two non-NaN dates: [Float.max] is a
             non-inlined stdlib call whose boxed result would be this
             loop's only allocation. *)
          let rel = Source.next_release d.src and c = k.Kernel.clock.(0) in
          if rel > c then rel else c
        end
      in
      let fault_t =
        match k.Kernel.trace with e :: _ -> e.Fault.time | [] -> infinity
      in
      if arrival_t < k.Kernel.scratch.(0) then
        k.Kernel.scratch.(0) <- arrival_t;
      if fault_t < k.Kernel.scratch.(0) then k.Kernel.scratch.(0) <- fault_t;
      let t_next = k.Kernel.scratch.(0) in
      if t_next = infinity then begin
        if d.live = 0 && d.q_len = 0 && Source.exhausted d.src then
          outcome := Some Drained
        else
          raise
            (Stalled
               { time = k.Kernel.clock.(0); live = d.live; queued = d.q_len })
      end
      else
        match d.cfg.horizon with
        | Some h when t_next > h +. 1e-12 -> outcome := Some Horizon_reached
        | Some _ | None ->
          (* Stage the segment end for the kernel and advance. *)
          k.Kernel.scratch.(1) <- t_next;
          step d
    end
  done;
  let outcome = Option.get !outcome in
  (match outcome with
   | Killed -> ()  (* a kill flushes nothing: that is the point *)
   | Drained | Horizon_reached ->
     if outcome = Drained && d.journaling then
       log d
         (J.Run_end { time = k.Kernel.clock.(0); completed = d.completed });
     flush_journal d;
     if d.cfg.checkpoint <> None then write_checkpoint d;
     Source.close d.src);
  report_of d outcome

let make_journal_dir cfg =
  match cfg.journal_dir with
  | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
  | Some _ | None -> ()

let run ?stop_after_events cfg src =
  make_journal_dir cfg;
  (match cfg.journal_dir with
   | Some dir ->
     (* a fresh daemon owns the directory: stale segments from a
        previous run must not be mistaken for this run's journal *)
     List.iter Sys.remove (segment_files ~dir)
   | None -> ());
  let d = make_daemon cfg src in
  if d.journaling then
    log d (J.Note { key = "serve.start"; value = cfg.source_desc });
  loop d ~stop_after_events

let resume ?stop_after_events cfg make_source =
  let path =
    match cfg.checkpoint with
    | Some p -> p
    | None -> invalid_arg "Service.resume: config has no checkpoint path"
  in
  make_journal_dir cfg;
  let d = restore cfg path make_source in
  truncate_segments d;
  loop d ~stop_after_events
