(** Wire formats for ROFL control messages.

    Binary encodings for the protocol's control messages, with exact size
    accounting: the paper reports concrete message sizes ("with 256 fingers
    the message size increases to 1638 bytes", "a 256-finger single-homed
    join requires 258 IP packets" at a 1500-byte MTU, §6.3), and these
    encoders reproduce that arithmetic.  All integers are big-endian;
    identifiers are the raw 16 bytes; router indices are 16-bit. *)

type msg =
  | Join_request of {
      joining : Rofl_idspace.Id.t;
      origin_router : int;
      as_path : int list;        (** AS-level source route accumulated so far *)
    }
  | Join_reply of {
      joining : Rofl_idspace.Id.t;
      successors : Rofl_idspace.Id.t list;
      predecessors : Rofl_idspace.Id.t list;
      fingers : (Rofl_idspace.Id.t * int) list; (** finger id, hosting router/AS *)
    }
  | Teardown of { dead : Rofl_idspace.Id.t; origin_router : int }
  | Zero_id_advert of { zero : Rofl_idspace.Id.t; via : int list }
  | Data of { dst : Rofl_idspace.Id.t; src : Rofl_idspace.Id.t; payload_len : int }

val encode : msg -> string
(** Serialise (payload bytes of [Data] are not materialised; only the header
    and declared length are).

    Kept as a reference: test_core pins size_bytes = encoded length, which
    msg-sizes relies on. *)

val decode : string -> (msg, string) result
(** Inverse of {!encode}; [Error] on truncated or malformed input.

    Kept as a reference: round-trips encode in test_core, pinning that
    msg-sizes' size_bytes prices a decodable message. *)

val size_bytes : msg -> int
(** [String.length (encode m)], without building the string. *)

val ip_packets : ?mtu:int -> msg -> int
(** Number of IP packets needed to carry the message at an MTU
    (default 1500) — the paper's "258 IP packets" arithmetic. *)

val finger_join_reply : fingers:int -> Rofl_util.Prng.t -> msg
(** A representative join reply carrying [fingers] finger entries (plus 4
    successors and 2 predecessors), for size studies. *)
