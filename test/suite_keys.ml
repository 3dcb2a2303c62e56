(* The async key layout is a persistent format: checkpoints, the disk and
   collapse stores and [Async.split_key] read these bytes.  The golden
   digests below were recorded before the encoders were made closure-free;
   any change to them is a format change, not a refactor. *)
open Test_util
open Ccr_refine

let reachable prog =
  let cfg = Async.{ k = 2 } in
  let seen = Hashtbl.create 1024 in
  let q = Queue.create () in
  let push st =
    let k = Async.encode st in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k st;
      Queue.push st q
    end
  in
  push (Async.initial prog cfg);
  while not (Queue.is_empty q) do
    List.iter (fun (_, st) -> push st) (Async.successors prog cfg (Queue.pop q))
  done;
  Hashtbl.fold (fun _ st acc -> st :: acc) seen []

let instantiate name n =
  match Ccr_protocols.Registry.find name with
  | Some e -> e.Ccr_protocols.Registry.instantiate ~reqrep:true ~n
  | None -> Alcotest.failf "no protocol %s" name

(* Digest of a key set, sorted and length-prefixed so it is unambiguous. *)
let digest keys =
  let keys = List.sort_uniq String.compare keys in
  ( List.length keys,
    Digest.to_hex
      (Digest.string
         (String.concat ""
            (List.map (fun k -> Printf.sprintf "%d:%s" (String.length k) k) keys)))
  )

let offsets_digest prog keys =
  List.sort_uniq String.compare keys
  |> List.map (fun k ->
         Async.split_key prog k |> Array.to_list
         |> List.map string_of_int |> String.concat ",")
  |> String.concat ";" |> Digest.string |> Digest.to_hex

let offsets_str a = Array.to_list a |> List.map string_of_int |> String.concat ","

(* protocol, n, (count, digest, split digest) of the encode keys and of the
   canonical keys, and the initial key's split offsets *)
let golden =
  [
    ( "invalidate", 2,
      (604, "acf593719f6e0c1e50e2074e9acb771c", "082ebf28a94ca174cc42c1bda8e231ca"),
      (604, "82842411f715f93518cd1fa7d318e758", "6c6173540785188fc3905afaa91796ae"),
      "14,17,20,21,22,23,24" );
    ( "invalidate", 3,
      (18207, "5487305ea648051fe8fc1ce8af386821", "91f73205a66f3800720ac35d8b38676c"),
      (9263, "52fb619056804fdd9fc9d3ad36b69cab", "0df5eac820c0bd8c1437bea827dff0e7"),
      "14,17,20,23,24,25,26,27,28,29" );
    ( "migratory", 2,
      (129, "2eb2f8609ad23173a261d385eb2b57dc", "a5205405058d5319881b770653f577e4"),
      (82, "a66fca078671434267dd87c4d9909b7f", "85c874bfe631c3689a8dadee941c16fb"),
      "8,11,14,15,16,17,18" );
    ( "migratory", 3,
      (1650, "77c11d346edc18f0559405d5917395a1", "761764c1754f19806803af63a0285f6c"),
      (402, "c59d487ee05a40d0fd94883e3fb0cbc5", "078f064205360a06c18fe6515892d43c"),
      "8,11,14,17,18,19,20,21,22,23" );
  ]

let golden_case (name, n, (ne, de, se), (nc, dc, sc), init_split) =
  case (Printf.sprintf "golden key layout: %s async n=%d" name n) (fun () ->
      let prog = instantiate name n in
      let sts = reachable prog in
      let enc = List.map Async.encode sts in
      let can = List.map (Symmetry.canonical_async_fast prog) sts in
      let label s = Printf.sprintf "%s n=%d %s" name n s in
      let count, d = digest enc in
      checki (label "encode keys") ne count;
      checks (label "encode digest") de d;
      checks (label "encode split offsets") se (offsets_digest prog enc);
      let count, d = digest can in
      checki (label "canonical keys") nc count;
      checks (label "canonical digest") dc d;
      checks (label "canonical split offsets") sc (offsets_digest prog can);
      let init = Async.encode (Async.initial prog Async.{ k = 2 }) in
      let bounds = Async.split_key prog init in
      checks (label "initial split") init_split (offsets_str bounds);
      checki (label "last offset is the key length") (String.length init)
        bounds.(Array.length bounds - 1))

(* Minor words a string of [len] bytes occupies, header included. *)
let string_words len = (len / (Sys.word_size / 8)) + 2

let alloc_per_call f xs =
  List.iter (fun x -> ignore (f x)) xs;
  let w0 = Gc.minor_words () in
  List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
  (Gc.minor_words () -. w0) /. float_of_int (List.length xs)

let alloc_tests =
  [
    case "Async.encode allocates only its result" (fun () ->
        let prog = instantiate "invalidate" 3 in
        let sts = reachable prog in
        let per_call = alloc_per_call Async.encode sts in
        let result =
          List.fold_left
            (fun acc st -> acc + string_words (String.length (Async.encode st)))
            0 sts
          / List.length sts
        in
        if per_call > float_of_int (result + 4) then
          Alcotest.failf "%.1f minor words per call for a %d-word key" per_call
            result);
    case "Async.encode_perm allocates only its result" (fun () ->
        let prog = instantiate "invalidate" 3 in
        let sts = reachable prog in
        let p = [| 2; 0; 1 |] and inv = [| 1; 2; 0 |] in
        let per_call = alloc_per_call (Async.encode_perm ~p ~inv) sts in
        let result =
          List.fold_left
            (fun acc st -> acc + string_words (String.length (Async.encode st)))
            0 sts
          / List.length sts
        in
        if per_call > float_of_int (result + 4) then
          Alcotest.failf "%.1f minor words per call for a %d-word key" per_call
            result);
  ]

let suite = ("keys", List.map golden_case golden @ alloc_tests)
