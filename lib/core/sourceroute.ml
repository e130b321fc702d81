type t = Bytes.t

let of_block b =
  if Bytes.length b land 1 <> 0 then invalid_arg "Sourceroute.of_block: odd length";
  b

let singleton r =
  if r < 0 || r >= 0xFFFF then invalid_arg "Sourceroute.singleton: router out of range";
  let b = Bytes.create 2 in
  Bytes.set_uint16_le b 0 r;
  b

let[@inline] routers t = Bytes.length t lsr 1

let[@inline] router t i = Bytes.get_uint16_le t (2 * i)

let destination t =
  if Bytes.length t = 0 then invalid_arg "Sourceroute.destination: empty";
  router t (routers t - 1)

let length t start = routers t - 1 - start

(* The scans are top-level recursions over explicit arguments, so a call
   builds no closure. *)
let rec contains_from t r i n = i < n && (router t i = r || contains_from t r (i + 1) n)

let contains_router t start r = contains_from t r start (routers t)

let rec link_from t u v i last =
  i < last
  && begin
    let a = router t i and b = router t (i + 1) in
    (a = u && b = v) || (a = v && b = u) || link_from t u v (i + 1) last
  end

let uses_link t start u v = link_from t u v start (routers t - 1)

let is_valid ls t start = Rofl_linkstate.Linkstate.valid_source_route ls t start
