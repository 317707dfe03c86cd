(* Four id-indexed columns: a job costs four words, and a release or size
   read is an unboxed load.  [Job.t] records exist only on the cold
   paths ([job], [jobs]). *)
type t = {
  platform : Platform.t;
  release : float array;
  size : float array;
  databank : int array;
  user : int array;
}

let make ~platform ~jobs =
  let src = Array.of_list jobs in
  let n = Array.length src in
  (* Sort a permutation, not the records; the sort is stable, so jobs
     equal under [Job.compare_by_release] keep their list order. *)
  let perm = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Job.compare_by_release src.(a) src.(b)) perm;
  let nd = Platform.num_databanks platform in
  let release = Array.create_float n and size = Array.create_float n in
  let databank = Array.make n 0 and user = Array.make n 0 in
  for i = 0 to n - 1 do
    let (j : Job.t) = src.(perm.(i)) in
    if j.databank < 0 || j.databank >= nd then
      invalid_arg "Instance.make: job databank out of range";
    if Platform.hosts_of platform j.databank = [] then
      invalid_arg "Instance.make: job databank hosted nowhere";
    release.(i) <- j.release;
    size.(i) <- j.size;
    databank.(i) <- j.databank;
    user.(i) <- j.user
  done;
  { platform; release; size; databank; user }

let platform t = t.platform
let num_jobs t = Array.length t.release

let release t i = t.release.(i)
let size t i = t.size.(i)
let databank t i = t.databank.(i)
let user t i = t.user.(i)

let releases t = t.release
let sizes t = t.size
let databanks t = t.databank

let job t i =
  { Job.id = i; release = t.release.(i); size = t.size.(i);
    databank = t.databank.(i); user = t.user.(i) }

let jobs t = Array.init (num_jobs t) (job t)

let num_users t = 1 + Array.fold_left Int.max 0 t.user

let delta t =
  if num_jobs t = 0 then 1.0
  else begin
    let lo = Array.fold_left Float.min t.size.(0) t.size in
    let hi = Array.fold_left Float.max t.size.(0) t.size in
    hi /. lo
  end

let ideal_time t i = t.size.(i) /. Platform.speed_for t.platform t.databank.(i)

let pp fmt t =
  Format.fprintf fmt "@[<v>%a%d jobs:@," Platform.pp t.platform (num_jobs t);
  for i = 0 to num_jobs t - 1 do
    Format.fprintf fmt "  %a@," Job.pp (job t i)
  done;
  Format.fprintf fmt "@]"
