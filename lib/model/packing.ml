open Numeric

(* Native-int image of a game's numeric data, and the two load lanes
   that the [View] and [Cview] cursors run on.  Loads are stored as
   integers scaled by [scale] (the lcm of the weight denominators) and
   capacities as reduced (numerator, denominator) int pairs, so every
   latency comparison becomes a three-factor native product.  [build]
   refuses (returns [None]) whenever any component spills the native
   range; the views then stay on the exact big-rational lane, so packing
   is a pure optimisation with no semantic surface.

   This is the only module that knows which lane a cursor is on.  A row
   is a user for [View] and a class for [Cview]; every kernel below is
   a first-order function of the lane, the exact row tables and a row
   index, so the cursors stay thin and the hot path pays no closure or
   functor indirection. *)

type t = {
  scale : int; (* lcm of the weight denominators *)
  pw : int array; (* pw.(r) = weight_r · scale *)
  cn : int array; (* cn.(r*m + l) = num (capacity r l) > 0 *)
  cd : int array; (* cd.(r*m + l) = den (capacity r l) > 0 *)
  wsum : int; (* Σ mult_r · pw.(r): total scaled traffic *)
  maxcn : int;
  maxcd : int;
  base_ok : bool; (* the product bound holds with no initial traffic *)
}

exception Spill

let to_native b =
  match Bigint.to_int_opt b with
  | Some v -> v
  | None -> raise Spill

(* Every packed predicate evaluates products of the shape
   (load + weight)·cden·cnum with load + weight ≤ 2·total, so the one
   bound that makes all of them (and every intermediate) exact is
   2·total·maxcd·maxcn ≤ max_int.  Checked in Bigint once per view
   construction and per structural delta — after which the hot path
   carries no overflow checks at all. *)
let admits ~total ~maxcn ~maxcd =
  total >= 0
  &&
  match
    Bigint.to_int_opt
      (Bigint.mul
         (Bigint.mul (Bigint.of_int 2) (Bigint.of_int total))
         (Bigint.mul (Bigint.of_int maxcd) (Bigint.of_int maxcn)))
  with
  | Some _ -> true
  | None -> false

(* [scale_lcm from dens] extends the Bigint scale [from] to a common
   multiple of every denominator in [dens]. *)
let scale_lcm from dens =
  Array.fold_left (fun acc d -> Bigint.mul acc (Bigint.div d (Bigint.gcd acc d))) from dens

let build ~mults (weights : Rational.t array) (capacities : Rational.t array array) =
  try
    let n = Array.length weights in
    let m = Array.length capacities.(0) in
    let scale_b = scale_lcm Bigint.one (Array.map Rational.den weights) in
    let scale = to_native scale_b in
    let pw =
      Array.map
        (fun w -> to_native (Bigint.mul (Rational.num w) (Bigint.div scale_b (Rational.den w))))
        weights
    in
    let wsum = ref Bigint.zero in
    Array.iteri
      (fun r p ->
        wsum := Bigint.add !wsum (Bigint.mul (Bigint.of_int mults.(r)) (Bigint.of_int p)))
      pw;
    let wsum = to_native !wsum in
    let cn = Array.make (n * m) 0 and cd = Array.make (n * m) 0 in
    let maxcn = ref 1 and maxcd = ref 1 in
    Array.iteri
      (fun r row ->
        Array.iteri
          (fun l c ->
            let a = to_native (Rational.num c) and b = to_native (Rational.den c) in
            if a <= 0 || b <= 0 then raise Spill;
            cn.((r * m) + l) <- a;
            cd.((r * m) + l) <- b;
            if a > !maxcn then maxcn := a;
            if b > !maxcd then maxcd := b)
          row)
      capacities;
    let maxcn = !maxcn and maxcd = !maxcd in
    Some { scale; pw; cn; cd; wsum; maxcn; maxcd; base_ok = admits ~total:wsum ~maxcn ~maxcd }
  with Spill -> None

(* [rescale pk initial] re-derives the per-view scale when a view
   carries initial link traffic: the scale grows to cover the initial
   denominators and the scaled weights grow with it.  Returns
   [(scale, pw, iload0)] or [None] on any native spill or when the
   product bound fails at the larger total. *)
let rescale pk initial =
  try
    let scale_b = scale_lcm (Bigint.of_int pk.scale) (Array.map Rational.den initial) in
    let scale = to_native scale_b in
    let factor = scale / pk.scale in
    let pw =
      if factor = 1 then pk.pw
      else
        Array.map
          (fun w -> to_native (Bigint.mul (Bigint.of_int w) (Bigint.of_int factor)))
          pk.pw
    in
    let iload0 =
      Array.map
        (fun q -> to_native (Bigint.mul (Rational.num q) (Bigint.div scale_b (Rational.den q))))
        initial
    in
    let total_b =
      Array.fold_left
        (fun acc v -> Bigint.add acc (Bigint.of_int v))
        (Bigint.mul (Bigint.of_int pk.wsum) (Bigint.of_int factor))
        iload0
    in
    let total = to_native total_b in
    if admits ~total ~maxcn:pk.maxcn ~maxcd:pk.maxcd then Some (scale, pw, iload0) else None
  with Spill -> None

(* --- lanes ------------------------------------------------------- *)

type rows = {
  weights : Rational.t array;
  contribs : Rational.t array;
  biases : Rational.t array;
  caps : Rational.t array array;
}

type packed_lane = {
  pscale : int; (* common denominator of all loads/weights *)
  mutable ppw : int array; (* scaled weight per row *)
  piload : int array; (* scaled load per link *)
  mutable pcn : int array; (* capacity numerators, row-major r*m + l *)
  mutable pcd : int array; (* capacity denominators *)
  mutable powned : bool; (* ppw/pcn/pcd are private copies, safe to mutate *)
  mutable pmaxcn : int; (* monotone upper bounds for the product bound *)
  mutable pmaxcd : int;
  mutable ptotal : int; (* current total scaled traffic, initial included *)
}

type lane = Exact of Rational.t array | Packed of packed_lane

let links = function
  | Exact loads -> Array.length loads
  | Packed pk -> Array.length pk.piload

let is_packed = function Packed _ -> true | Exact _ -> false

(* [count·q], skipping the multiplication for a single user. *)
let times count q = if count = 1 then q else Rational.mul (Rational.of_int count) q

(* Unchecked load patch: [delta] more row-[r] users on [link].  Loads
   sum contributions, not weights: other users only meet the
   presence-discounted traffic of a row (for load-linear rows the
   contribution is physically the weight). *)
let add_count lane rows r ~link ~delta =
  match lane with
  | Exact loads -> loads.(link) <- Rational.add loads.(link) (times delta rows.contribs.(r))
  | Packed pk ->
    let d = delta * pk.ppw.(r) in
    pk.piload.(link) <- pk.piload.(link) + d;
    pk.ptotal <- pk.ptotal + d

let make_lane pk ?initial m =
  let packed =
    match (pk, initial) with
    | Some pk, None when pk.base_ok -> Some (pk, (pk.scale, pk.pw, Array.make m 0))
    | Some pk, Some t -> Option.map (fun scaled -> (pk, scaled)) (rescale pk t)
    | _ -> None
  in
  match packed with
  | None -> Exact (match initial with None -> Array.make m Rational.zero | Some t -> Array.copy t)
  | Some (pk, (scale, pw, iload)) ->
    (* The product bound was checked at the full total, so every
       partial total met while the caller places the occupants with
       [add_count] fits too. *)
    Packed
      {
        pscale = scale;
        ppw = pw;
        piload = iload;
        pcn = pk.cn;
        pcd = pk.cd;
        powned = false;
        pmaxcn = pk.maxcn;
        pmaxcd = pk.maxcd;
        ptotal = Array.fold_left ( + ) 0 iload;
      }

(* Packed-lane rationals are rebuilt on demand through [Rational.make],
   whose canonical lowest-terms form makes them structurally identical
   to what the exact lane would have computed — lane choice is
   unobservable in results. *)
let load lane l =
  match lane with
  | Exact loads -> loads.(l)
  | Packed pk -> Rational.make (Bigint.of_int pk.piload.(l)) (Bigint.of_int pk.pscale)

let q_latency pk total idx =
  Rational.make
    (Bigint.of_int (total * pk.pcd.(idx)))
    (Bigint.mul (Bigint.of_int pk.pscale) (Bigint.of_int pk.pcn.(idx)))

(* Unrecorded block reassignment: [count] row-[r] users from [src] to
   [dst].  Touches exactly the two affected load entries; both lanes
   are exact, so repeated shifts never drift.  On the packed lane
   [count·pw] cannot wrap: it is at most the total scaled traffic,
   which fits by construction. *)
let shift lane rows r ~src ~dst count =
  match lane with
  | Exact loads ->
    let d = times count rows.contribs.(r) in
    loads.(src) <- Rational.sub loads.(src) d;
    loads.(dst) <- Rational.add loads.(dst) d
  | Packed pk ->
    let d = count * pk.ppw.(r) in
    pk.piload.(src) <- pk.piload.(src) - d;
    pk.piload.(dst) <- pk.piload.(dst) + d

(* A row's own latency carries its bias (w − t): a user is always
   present for itself, even when others only expect it with probability
   p.  The guard keeps load-linear rows on the seed's exact code path
   (bias is physically zero there). *)
let biased rows r q =
  let b = rows.biases.(r) in
  if Rational.is_zero b then q else Rational.add q b

let latency lane rows r l =
  match lane with
  | Exact loads -> Rational.div (biased rows r loads.(l)) rows.caps.(r).(l)
  | Packed pk -> q_latency pk pk.piload.(l) ((r * Array.length pk.piload) + l)

let latency_after_move lane rows r ~src dst =
  match lane with
  | Exact loads ->
    (* After a deviation the user meets its full weight: contribution +
       bias = w, so the moving branch is the seed expression. *)
    let base = loads.(dst) in
    let total = if dst = src then biased rows r base else Rational.add base rows.weights.(r) in
    Rational.div total rows.caps.(r).(dst)
  | Packed pk ->
    let total = pk.piload.(dst) + if dst = src then 0 else pk.ppw.(r) in
    q_latency pk total ((r * Array.length pk.piload) + dst)

let best_response lane rows r ~src =
  match lane with
  | Exact _ ->
    let best_link = ref 0 and best = ref (latency_after_move lane rows r ~src 0) in
    for l = 1 to links lane - 1 do
      let lat = latency_after_move lane rows r ~src l in
      if Rational.compare lat !best < 0 then begin
        best_link := l;
        best := lat
      end
    done;
    (!best_link, !best)
  | Packed pk ->
    (* Candidate latencies are (load'·cd)/(scale·cn): track the best as
       the int pair (load'·cd, cn) and compare by cross products, all
       within the packed bound. *)
    let m = Array.length pk.piload in
    let base = r * m and w = pk.ppw.(r) in
    let best_link = ref 0 in
    let t0 = pk.piload.(0) + if src = 0 then 0 else w in
    let bnum = ref (t0 * pk.pcd.(base)) and bcn = ref pk.pcn.(base) in
    for l = 1 to m - 1 do
      let t = pk.piload.(l) + if src = l then 0 else w in
      let a = t * pk.pcd.(base + l) in
      if a * !bcn < !bnum * pk.pcn.(base + l) then begin
        best_link := l;
        bnum := a;
        bcn := pk.pcn.(base + l)
      end
    done;
    ( !best_link,
      Rational.make (Bigint.of_int !bnum) (Bigint.mul (Bigint.of_int pk.pscale) (Bigint.of_int !bcn))
    )

(* The Nash inequality on the exact lane rides the fused kernel:
   (load_l + w)/cap_l < current  ⟺  load_l + w < current·cap_l, i.e.
   [Rational.compare_sum load_l w (current·cap_l) < 0] — no sum is
   materialised and no division happens per candidate link.  On the
   packed lane it is a pure three-factor native product comparison.
   The kernel is backend-agnostic as written: a deviation numerator is
   load + contribution + bias = load + w for every backend, and
   [current] already carries the bias through [latency]. *)
let is_defector lane rows r ~src =
  match lane with
  | Exact loads ->
    let current = latency lane rows r src in
    let w = rows.weights.(r) and caps = rows.caps.(r) in
    let m = Array.length loads in
    let rec scan l =
      if l >= m then false
      else if l <> src && Rational.compare_sum loads.(l) w (Rational.mul current caps.(l)) < 0
      then true
      else scan (l + 1)
    in
    scan 0
  | Packed pk ->
    let m = Array.length pk.piload in
    let base = r * m and w = pk.ppw.(r) in
    let cnum = pk.piload.(src) * pk.pcd.(base + src) and ccn = pk.pcn.(base + src) in
    let rec scan l =
      if l >= m then false
      else if l <> src && (pk.piload.(l) + w) * pk.pcd.(base + l) * ccn < cnum * pk.pcn.(base + l)
      then true
      else scan (l + 1)
    in
    scan 0

(* Single-destination restriction of [is_defector]: no rational is
   built on the packed lane, so callers may probe candidate links one
   at a time without paying for a full best-response sweep. *)
let improves lane rows r ~src dst =
  dst <> src
  &&
  match lane with
  | Exact loads ->
    let current = latency lane rows r src in
    Rational.compare_sum loads.(dst) rows.weights.(r) (Rational.mul current rows.caps.(r).(dst)) < 0
  | Packed pk ->
    let m = Array.length pk.piload in
    let base = r * m and w = pk.ppw.(r) in
    (pk.piload.(dst) + w) * pk.pcd.(base + dst) * pk.pcn.(base + src)
    < pk.piload.(src) * pk.pcd.(base + src) * pk.pcn.(base + dst)

(* --- structural deltas ------------------------------------------- *)

(* Each [revise_*] returns the lane to carry on with: [lane] itself,
   patched in place, or a fresh exact lane when the revised magnitudes
   break the product bound.  A spill leaves the packed record
   untouched, so the caller keeps it as the lane to restore on undo. *)

(* Copy-on-write: the packed row tables start out shared with the
   game's [Packing] record (and with sibling views); take private
   copies before the first structural write. *)
let own pk =
  if not pk.powned then begin
    pk.ppw <- Array.copy pk.ppw;
    pk.pcn <- Array.copy pk.pcn;
    pk.pcd <- Array.copy pk.pcd;
    pk.powned <- true
  end

(* The current loads as exact rationals: the same canonical values the
   exact lane would have held. *)
let spill pk =
  Exact (Array.map (fun s -> Rational.make (Bigint.of_int s) (Bigint.of_int pk.pscale)) pk.piload)

(* [q·scale] as a positive native int, when integral and representable. *)
let scaled_int ~scale q =
  let d, r = Bigint.divmod (Bigint.of_int scale) (Rational.den q) in
  if not (Bigint.is_zero r) then None
  else
    match Bigint.to_int_opt (Bigint.mul (Rational.num q) d) with
    | Some x when x > 0 -> Some x
    | _ -> None

let revise_count lane rows r ~link ~delta =
  let lane =
    match lane with
    | Packed pk ->
      let pw = pk.ppw.(r) in
      if
        delta <= 0
        || (delta <= (max_int - pk.ptotal) / pw
            && admits ~total:(pk.ptotal + (delta * pw)) ~maxcn:pk.pmaxcn ~maxcd:pk.pmaxcd)
      then lane
      else spill pk
    | Exact _ -> lane
  in
  add_count lane rows r ~link ~delta;
  lane

(* Unchecked: row [r]'s users, laid out over the links as [counts],
   now each carry [contrib] (the packed lane exists only for
   load-linear rows, where that is [weight], scaled to a native int).
   Reads the row's previous contribution, so call it before updating
   [rows]. *)
let reweight lane rows r counts ~weight ~contrib =
  match lane with
  | Exact loads ->
    let d = Rational.sub contrib rows.contribs.(r) in
    if not (Rational.is_zero d) then
      Array.iteri (fun l e -> if e > 0 then loads.(l) <- Rational.add loads.(l) (times e d)) counts
  | Packed pk ->
    let pw' = match scaled_int ~scale:pk.pscale weight with Some x -> x | None -> assert false in
    let d = pw' - pk.ppw.(r) in
    Array.iteri
      (fun l e ->
        if e > 0 then begin
          pk.piload.(l) <- pk.piload.(l) + (e * d);
          pk.ptotal <- pk.ptotal + (e * d)
        end)
      counts;
    pk.ppw.(r) <- pw'

let revise_weight lane rows r counts ~weight ~contrib =
  let lane =
    match lane with
    | Packed pk -> begin
      let pw = pk.ppw.(r) in
      let occ = Array.fold_left ( + ) 0 counts in
      match scaled_int ~scale:pk.pscale weight with
      | Some pw'
        when occ <= max_int / pw'
             && pk.ptotal - (occ * pw) <= max_int - (occ * pw')
             && admits ~total:(pk.ptotal - (occ * pw) + (occ * pw')) ~maxcn:pk.pmaxcn
                  ~maxcd:pk.pmaxcd ->
        own pk;
        lane
      | _ -> spill pk
    end
    | Exact _ -> lane
  in
  reweight lane rows r counts ~weight ~contrib;
  lane

(* Unchecked: store [cap]'s reduced pair as row [r]'s capacity on
   [link].  Loads are unaffected, so the exact lane has nothing to do. *)
let set_capacity lane r ~link cap =
  match lane with
  | Exact _ -> ()
  | Packed pk ->
    let idx = (r * Array.length pk.piload) + link in
    pk.pcn.(idx) <- to_native (Rational.num cap);
    pk.pcd.(idx) <- to_native (Rational.den cap)

let revise_capacity lane r ~link cap =
  match lane with
  | Exact _ -> lane
  | Packed pk -> (
    match (Bigint.to_int_opt (Rational.num cap), Bigint.to_int_opt (Rational.den cap)) with
    | Some a, Some b
      when admits ~total:pk.ptotal ~maxcn:(max pk.pmaxcn a) ~maxcd:(max pk.pmaxcd b) ->
      own pk;
      set_capacity lane r ~link cap;
      pk.pmaxcn <- max pk.pmaxcn a;
      pk.pmaxcd <- max pk.pmaxcd b;
      lane
    | _ -> spill pk)
