(* Atomic small-file writes and a cheap integrity checksum.

   The rename trick requires the temp file to live in the destination
   directory (rename across filesystems is not atomic, and not a rename);
   the pid suffix keeps concurrent writers from clobbering each other's
   staging files. *)

let write_atomic ~path content =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (try
     let oc = Unix.out_channel_of_descr fd in
     output_string oc content;
     flush oc;
     Unix.fsync fd;
     Unix.close fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  try Unix.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* FNV-1a over bytes; OCaml's native int is 63-bit so the fold runs on
   Int64 and renders the full 64-bit digest.  The accumulator is a local
   ref no closure captures, so the compiler keeps it unboxed in a
   register: the fold allocates nothing per byte. *)
let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  Printf.sprintf "%016Lx" !h
