(* Reference outputs as [key value] lines.  Floats are written with %h,
   the exact hexadecimal form, so comparing the text compares every bit:
   one flipped bit of one float is a mismatch. *)

type t = (string * string) list

let float k f = (k, Printf.sprintf "%h" f)
let int k i = (k, string_of_int i)
let string k s = (k, s)

let to_string t =
  String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s %s\n" k v) t)

let of_string s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match String.index_opt l ' ' with
         | Some i -> (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
         | None -> failwith ("Refcheck.of_string: no value on line " ^ l))

(* Human-readable mismatches, empty when [actual] reproduces [expected]
   key for key and character for character. *)
let diff ~expected ~actual =
  let missing =
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k actual with
        | None -> Some (Printf.sprintf "%s: missing (expected %s)" k v)
        | Some v' when v' <> v -> Some (Printf.sprintf "%s: %s, expected %s" k v' v)
        | Some _ -> None)
      expected
  in
  let extra =
    List.filter_map
      (fun (k, v) ->
        if List.mem_assoc k expected then None
        else Some (Printf.sprintf "%s: unexpected (%s)" k v))
      actual
  in
  missing @ extra

(* Size and FNV-1a 64 digest of a file: the digest [Gripps_obs.Fsio.fnv64]
   gives of its contents, read through a fixed buffer.  A journal segment
   is about 7 MB, and reading segments whole to check them raised the
   workload's peak resident set by 30 MB. *)
let digest_file path =
  let buf = Bytes.create 65536 in
  In_channel.with_open_bin path (fun ic ->
      let rec go size h =
        match In_channel.input ic buf 0 (Bytes.length buf) with
        | 0 -> (size, Printf.sprintf "%016Lx" h)
        | n ->
          let h = ref h in
          for i = 0 to n - 1 do
            h := Int64.mul (Int64.logxor !h (Int64.of_int (Bytes.get_uint8 buf i))) 0x100000001b3L
          done;
          go (size + n) !h
      in
      go 0 0xcbf29ce484222325L)
