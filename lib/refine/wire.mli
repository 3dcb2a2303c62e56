(** Messages of the refined (asynchronous) protocol.

    Each rendezvous is split into a {e request} carrying the rendezvous'
    message type and payload, answered by an {e ack} (success), a {e nack}
    (failure: insufficient buffers or no matching guard), or — under the
    request/reply optimization — by the reply request itself.  Acks carry
    no payload: data always flows from the active to the passive party of
    the rendezvous, i.e. inside the request. *)

open Ccr_core

type msg = { m_name : string; m_payload : Value.t list }

type t = Req of msg | Ack | Nack

val equal : t -> t -> bool
val encode : Buffer.t -> t -> unit

val encode_perm : Buffer.t -> int array -> t -> unit
(** [encode_perm buf p m] writes exactly the bytes [encode] would write
    for [m] with every remote id [r] in its payload renamed to [p.(r)]. *)

val encode_req : Buffer.t -> msg -> unit
(** [encode_req buf m] writes the bytes of [encode buf (Req m)] without
    allocating the [Req] block. *)

val encode_req_perm : Buffer.t -> int array -> msg -> unit
(** Likewise for [encode_perm buf p (Req m)]. *)

val skip : string -> int -> int
(** Position just past the {!encode}d message at [pos] in [s]; used when
    re-parsing encoded state keys for collapse compression.
    @raise Invalid_argument if [pos] does not hold a message tag. *)

val pp : t Fmt.t
