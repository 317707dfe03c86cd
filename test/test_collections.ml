module Heap = Gripps_collections.Heap
module Vec = Gripps_collections.Vec

let test_heap_basic () =
  let h = Heap.create ~cmp:Int.compare in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "peek empty" None (Heap.peek h);
  Alcotest.(check (option int)) "pop empty" None (Heap.pop h);
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3 ];
  Alcotest.(check int) "length" 5 (Heap.length h);
  Alcotest.(check int) "peek min" 1 (Heap.peek_exn h);
  Alcotest.(check (list int)) "sorted drain" [ 1; 1; 3; 4; 5 ] (Heap.to_sorted_list h);
  Alcotest.(check int) "to_sorted_list non-destructive" 5 (Heap.length h)

let test_heap_exn () =
  let h = Heap.create ~cmp:Int.compare in
  Alcotest.check_raises "peek_exn" (Invalid_argument "Heap.peek_exn: empty heap")
    (fun () -> ignore (Heap.peek_exn h));
  Alcotest.check_raises "pop_exn" (Invalid_argument "Heap.pop_exn: empty heap")
    (fun () -> ignore (Heap.pop_exn h))

let test_heap_custom_order () =
  let h = Heap.of_list ~cmp:(fun a b -> Int.compare b a) [ 1; 5; 3 ] in
  Alcotest.(check int) "max-heap top" 5 (Heap.pop_exn h);
  Alcotest.(check int) "next" 3 (Heap.pop_exn h)

let prop_heap_sorts =
  QCheck2.Test.make ~name:"heap drains in sorted order" ~count:300
    QCheck2.Gen.(list small_int)
    (fun l ->
      let h = Heap.of_list ~cmp:Int.compare l in
      Heap.to_sorted_list h = List.sort Int.compare l)

let test_indexed_basic () =
  let h = Heap.Indexed.create ~capacity:8 in
  Alcotest.(check bool) "empty" true (Heap.Indexed.is_empty h);
  Alcotest.(check int) "capacity" 8 (Heap.Indexed.capacity h);
  Alcotest.(check (option int)) "min empty" None (Heap.Indexed.min_elt h);
  List.iter (fun (id, k) -> Heap.Indexed.add h id k)
    [ (3, 5.0); (0, 2.0); (5, 9.0); (1, 2.0); (7, 0.5) ];
  Alcotest.(check int) "size" 5 (Heap.Indexed.size h);
  Alcotest.(check bool) "mem 5" true (Heap.Indexed.mem h 5);
  Alcotest.(check bool) "mem 4" false (Heap.Indexed.mem h 4);
  Alcotest.(check (float 0.0)) "key" 5.0 (Heap.Indexed.key h 3);
  (* equal keys break ties by ascending id: 0 before 1 *)
  Alcotest.(check (list int)) "sorted drain" [ 7; 0; 1; 3; 5 ]
    (Heap.Indexed.to_sorted_list h);
  Alcotest.(check int) "non-destructive" 5 (Heap.Indexed.size h);
  Alcotest.(check int) "pop min" 7 (Heap.Indexed.pop_exn h);
  Alcotest.(check (option int)) "next min" (Some 0) (Heap.Indexed.min_elt h)

let test_indexed_update_remove () =
  let h = Heap.Indexed.create ~capacity:4 in
  List.iter (fun (id, k) -> Heap.Indexed.add h id k)
    [ (0, 4.0); (1, 3.0); (2, 2.0); (3, 1.0) ];
  Heap.Indexed.update h 0 0.5;          (* decrease-key to the top *)
  Alcotest.(check int) "decreased to min" 0 (Heap.Indexed.min_exn h);
  Heap.Indexed.update h 0 10.0;         (* increase-key to the bottom *)
  Alcotest.(check int) "increased away" 3 (Heap.Indexed.min_exn h);
  Heap.Indexed.remove h 3;
  Alcotest.(check bool) "removed" false (Heap.Indexed.mem h 3);
  Alcotest.(check (list int)) "order after edits" [ 2; 1; 0 ]
    (Heap.Indexed.to_sorted_list h);
  Heap.Indexed.clear h;
  Alcotest.(check bool) "cleared" true (Heap.Indexed.is_empty h)

let test_indexed_errors () =
  let h = Heap.Indexed.create ~capacity:2 in
  Heap.Indexed.add h 0 1.0;
  Alcotest.check_raises "double add"
    (Invalid_argument "Heap.Indexed.add: id already present")
    (fun () -> Heap.Indexed.add h 0 2.0);
  Alcotest.check_raises "update absent"
    (Invalid_argument "Heap.Indexed.update: absent id")
    (fun () -> Heap.Indexed.update h 1 2.0);
  Alcotest.check_raises "remove absent"
    (Invalid_argument "Heap.Indexed.remove: absent id")
    (fun () -> Heap.Indexed.remove h 1);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Heap.Indexed.add: id out of range")
    (fun () -> Heap.Indexed.add h 2 1.0);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Heap.Indexed.create: negative capacity")
    (fun () -> ignore (Heap.Indexed.create ~capacity:(-1)))

(* The load-bearing property: drain order = ascending sort of (key, id),
   even through interleaved adds, re-keys and removes. *)
let prop_indexed_matches_sort =
  QCheck2.Test.make ~name:"indexed heap drains as (key, id) sort" ~count:300
    QCheck2.Gen.(list (pair (int_bound 31) (float_bound_inclusive 10.0)))
    (fun ops ->
      let h = Heap.Indexed.create ~capacity:32 in
      let model = Hashtbl.create 32 in
      List.iteri
        (fun i (id, k) ->
          if Heap.Indexed.mem h id then
            if i mod 3 = 0 then (Heap.Indexed.remove h id; Hashtbl.remove model id)
            else (Heap.Indexed.update h id k; Hashtbl.replace model id k)
          else (Heap.Indexed.add h id k; Hashtbl.replace model id k))
        ops;
      let expect =
        Hashtbl.fold (fun id k acc -> (k, id) :: acc) model []
        |> List.sort compare |> List.map snd
      in
      Heap.Indexed.to_sorted_list h = expect)

(* A family of heaps over one id space: each operation goes to a random
   heap; an id sits in at most one heap, so a sibling refuses it and does
   not see it; a removed id re-added with [add_keyed] has its old key;
   and each heap drains as the sort of its own (key, id) pairs. *)
let prop_indexed_family =
  QCheck2.Test.make ~name:"heap family shares columns, each heap drains as (key, id) sort"
    ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 300)
        (triple (int_bound 63) (int_bound 2) (float_bound_inclusive 10.0)))
    (fun ops ->
      let hs = Heap.Indexed.family ~capacity:64 3 in
      let model = Hashtbl.create 64 in (* id -> (heap, key) *)
      let ok = ref true in
      let refused h id k =
        match Heap.Indexed.add h id k with
        | () -> false
        | exception Invalid_argument _ -> true
      in
      List.iteri
        (fun i (id, w, k) ->
          match Hashtbl.find_opt model id with
          | None ->
            Heap.Indexed.add hs.(w) id k;
            Hashtbl.replace model id (w, k)
          | Some (h, old) ->
            if w <> h then
              ok := !ok && refused hs.(w) id k && not (Heap.Indexed.mem hs.(w) id);
            if i mod 3 = 0 then begin
              Heap.Indexed.remove hs.(h) id;
              if i mod 2 = 0 then begin
                Heap.Indexed.add_keyed hs.(h) id;
                ok := !ok && Heap.Indexed.key hs.(h) id = old
              end
              else Hashtbl.remove model id
            end
            else begin
              Heap.Indexed.update hs.(h) id k;
              Hashtbl.replace model id (h, k)
            end)
        ops;
      let drains w =
        let expect =
          Hashtbl.fold
            (fun id (h, k) acc -> if h = w then (k, id) :: acc else acc)
            model []
          |> List.sort compare |> List.map snd
        in
        let rec drain acc =
          match Heap.Indexed.pop hs.(w) with
          | None -> List.rev acc
          | Some id -> drain (id :: acc)
        in
        drain [] = expect
      in
      !ok && drains 0 && drains 1 && drains 2)

(* The slot columns start small and grow with the member count: an empty
   family costs its two shared id columns, and one heap can still take
   hundreds of members. *)
let test_indexed_family_growth () =
  let empty = Heap.Indexed.family ~capacity:100_000 3 in
  Alcotest.(check bool) "empty family: two words per id" true
    (Obj.reachable_words (Obj.repr empty) <= (2 * 100_000) + 200);
  let hs = Heap.Indexed.family ~capacity:1000 2 in
  let key id = float_of_int (id * 7919 mod 1000) in
  for id = 999 downto 0 do
    Heap.Indexed.add hs.(if id mod 5 < 3 then 0 else 1) id (key id)
  done;
  Alcotest.(check (pair int int)) "members" (600, 400)
    (Heap.Indexed.size hs.(0), Heap.Indexed.size hs.(1));
  List.iter
    (fun w ->
      let drained = List.init (Heap.Indexed.size hs.(w)) (fun _ -> Heap.Indexed.pop_exn hs.(w)) in
      Alcotest.(check (list int)) (Printf.sprintf "heap %d drains sorted" w)
        (List.sort (fun a b -> compare (key a, a) (key b, b)) drained)
        drained)
    [ 0; 1 ]

let test_vec_basic () =
  let v = Vec.create () in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  for i = 0 to 99 do Vec.push v (i * i) done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 7" 49 (Vec.get v 7);
  Vec.set v 7 0;
  Alcotest.(check int) "set" 0 (Vec.get v 7);
  Alcotest.(check (option int)) "pop" (Some (99 * 99)) (Vec.pop v);
  Alcotest.(check int) "length after pop" 99 (Vec.length v);
  Alcotest.check_raises "oob" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 99))

let test_vec_iter_fold () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "fold sum" 10 (Vec.fold_left ( + ) 0 v);
  Alcotest.(check (list int)) "to_list" [ 1; 2; 3; 4 ] (Vec.to_list v);
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 3) v);
  Alcotest.(check bool) "not exists" false (Vec.exists (fun x -> x = 9) v);
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  Alcotest.(check int) "iteri count" 4 (List.length !acc);
  Vec.clear v;
  Alcotest.(check bool) "clear" true (Vec.is_empty v)

let suite =
  ( "collections",
    [ Alcotest.test_case "heap basic" `Quick test_heap_basic;
      Alcotest.test_case "heap exceptions" `Quick test_heap_exn;
      Alcotest.test_case "heap custom order" `Quick test_heap_custom_order;
      QCheck_alcotest.to_alcotest prop_heap_sorts;
      Alcotest.test_case "indexed heap basic" `Quick test_indexed_basic;
      Alcotest.test_case "indexed heap update/remove" `Quick
        test_indexed_update_remove;
      Alcotest.test_case "indexed heap errors" `Quick test_indexed_errors;
      QCheck_alcotest.to_alcotest prop_indexed_matches_sort;
      Alcotest.test_case "vec basic" `Quick test_vec_basic;
      Alcotest.test_case "vec iter/fold" `Quick test_vec_iter_fold;
      QCheck_alcotest.to_alcotest prop_indexed_family;
      Alcotest.test_case "indexed heap family growth" `Quick
        test_indexed_family_growth ] )
