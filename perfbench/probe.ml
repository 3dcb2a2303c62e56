(* Layer probes placed from outside the program.

   The benchmark wraps the public functions a check hands to its explorer
   — [Explore.system]'s [succ], [encode] and [canon_key], and each
   registry invariant — with [timed] below.  Every wrapped call is timed
   on the monotonic clock and charged, together with the minor-heap words
   it allocated, to the calling domain's accumulator.  Accumulators are per
   domain (domain-local storage, registered under a mutex when a domain
   first calls a probe), so [Explore.par_run]'s worker domains never share
   a counter.  The first [span_cap] calls of each domain are also kept as
   spans (layer, start, end) for the trace file; later calls are counted
   as dropped.  Nothing here allocates on the measured path beyond what
   the wrapped function itself does. *)

let layers = [| "succ"; "encode"; "canon"; "inv" |]
let succ_i = 0
let encode_i = 1
let canon_i = 2
let inv_i = 3
let n_layers = Array.length layers
let span_cap = 1 lsl 14

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type acc = {
  main : bool;  (** the main domain: [Explore.par_run]'s leader *)
  calls : int array;  (** per layer *)
  ns : int array;
  words : int array;  (** minor-heap words allocated inside the calls *)
  units : int array;  (** succ: children returned; encode: key bytes *)
  spans : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (** [layer; start_ns; end_ns] triples *)
  mutable n_spans : int;
  mutable dropped : int;
}

let registry = ref []
let lock = Mutex.create ()

let fresh () =
  let z () = Array.make n_layers 0 in
  let a =
    {
      main = Domain.is_main_domain ();
      calls = z ();
      ns = z ();
      words = z ();
      units = z ();
      spans = Bigarray.(Array1.create int c_layout (3 * span_cap));
      n_spans = 0;
      dropped = 0;
    }
  in
  Mutex.protect lock (fun () -> registry := a :: !registry);
  a

let key = Domain.DLS.new_key fresh

(* Forget every worker domain's accumulator (their domains have been
   joined) and zero the main domain's.  Call from the main domain between
   runs. *)
let reset () =
  let a = Domain.DLS.get key in
  List.iter
    (fun arr -> Array.fill arr 0 n_layers 0)
    [ a.calls; a.ns; a.words; a.units ];
  a.n_spans <- 0;
  a.dropped <- 0;
  Mutex.protect lock (fun () -> registry := [ a ])

let accs () = Mutex.protect lock (fun () -> !registry)

let[@inline] record a i t0 t1 w0 w1 =
  a.calls.(i) <- a.calls.(i) + 1;
  a.ns.(i) <- a.ns.(i) + (t1 - t0);
  a.words.(i) <- a.words.(i) + int_of_float (w1 -. w0);
  if a.n_spans < span_cap then begin
    let j = 3 * a.n_spans in
    Bigarray.Array1.unsafe_set a.spans j i;
    Bigarray.Array1.unsafe_set a.spans (j + 1) t0;
    Bigarray.Array1.unsafe_set a.spans (j + 2) t1;
    a.n_spans <- a.n_spans + 1
  end
  else a.dropped <- a.dropped + 1

(* [timed i f] is [f] charged to layer [i]; [units] measures each result
   (children returned, key bytes) into the layer's unit count. *)
let timed ?(units = fun _ -> 0) i f x =
  let a = Domain.DLS.get key in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = f x in
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  record a i t0 t1 w0 w1;
  a.units.(i) <- a.units.(i) + units r;
  r

(* Totals over every domain of one field, per layer. *)
let total field =
  let t = Array.make n_layers 0 in
  List.iter
    (fun a -> Array.iteri (fun i v -> t.(i) <- t.(i) + v) (field a))
    (accs ());
  t

(* Wrapped-call nanoseconds of the main domain and of all other domains. *)
let busy_ns () =
  List.fold_left
    (fun (m, o) a ->
      let s = Array.fold_left ( + ) 0 a.ns in
      if a.main then (m + s, o) else (m, o + s))
    (0, 0) (accs ())

(* The kept spans of every domain: (domain slot, layer, start, end), the
   main domain in slot 0; plus the number of calls not kept. *)
let spans () =
  let accs = List.sort (fun a b -> compare b.main a.main) (accs ()) in
  let kept =
    List.concat
      (List.mapi
         (fun d a ->
           List.init a.n_spans (fun s ->
               let g j = Bigarray.Array1.get a.spans ((3 * s) + j) in
               (d, g 0, g 1, g 2)))
         accs)
  in
  (kept, List.fold_left (fun n a -> n + a.dropped) 0 accs)
