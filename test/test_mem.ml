module Level = Occamy_mem.Level
module Channel = Occamy_mem.Channel
module Profile = Occamy_mem.Profile
module Hierarchy = Occamy_mem.Hierarchy
module Mob = Occamy_mem.Mob

let test_channel_bandwidth () =
  let ch = Channel.create ~name:"c" ~bytes_per_cycle:64.0 in
  let t1 = Channel.request ch ~now:0.0 ~bytes:128.0 in
  Helpers.check_float "first transfer 2 cycles" 2.0 t1;
  (* Second request queues behind the first. *)
  let t2 = Channel.request ch ~now:0.0 ~bytes:64.0 in
  Helpers.check_float "queued transfer" 3.0 t2;
  (* A late request does not queue. *)
  let t3 = Channel.request ch ~now:100.0 ~bytes:64.0 in
  Helpers.check_float "idle channel" 101.0 t3;
  Helpers.check_float "bytes moved" 256.0 (Channel.bytes_moved ch)

let test_channel_utilisation () =
  let ch = Channel.create ~name:"c" ~bytes_per_cycle:32.0 in
  ignore (Channel.request ch ~now:0.0 ~bytes:320.0);
  Helpers.check_float "10 busy cycles over 20" 0.5
    (Channel.utilisation ch ~cycles:20.0)

let test_hierarchy_latencies () =
  let h = Hierarchy.create () in
  let cfg = Hierarchy.config h in
  let t_vc = Hierarchy.access h ~now:0 ~level:Level.Vec_cache ~bytes:64 in
  Helpers.check_bool "VC latency dominates small access" true
    (t_vc >= cfg.vc_latency);
  Hierarchy.reset h;
  let t_l2 = Hierarchy.access h ~now:0 ~level:Level.L2 ~bytes:64 in
  Helpers.check_bool "L2 slower than VC" true (t_l2 > t_vc);
  Hierarchy.reset h;
  let t_dram = Hierarchy.access h ~now:0 ~level:Level.Dram ~bytes:64 in
  Helpers.check_bool "DRAM slower than L2" true (t_dram > t_l2)

let test_hierarchy_contention () =
  (* Saturating DRAM: completion times must spread out at the DRAM
     bandwidth, not the VC bandwidth. *)
  let h = Hierarchy.create () in
  let n = 32 in
  let last = ref 0 in
  for _ = 1 to n do
    last := Hierarchy.access h ~now:0 ~level:Level.Dram ~bytes:64
  done;
  let cfg = Hierarchy.config h in
  let min_spread =
    float_of_int (n * 64) /. cfg.dram_bytes_per_cycle
  in
  Helpers.check_bool "DRAM bandwidth limits throughput" true
    (float_of_int !last >= min_spread);
  Helpers.check_int "accesses counted" n (Hierarchy.accesses h);
  Helpers.check_int "at dram" n (Hierarchy.accesses_at h Level.Dram)

let test_profile_classify () =
  let rng = Occamy_util.Rng.create ~seed:11 in
  let p = Profile.make ~vc:0.5 ~l2:0.3 ~dram:0.2 in
  let counts = Array.make 3 0 in
  let n = 20000 in
  for _ = 1 to n do
    let l = Profile.classify p rng in
    counts.(Level.depth l) <- counts.(Level.depth l) + 1
  done;
  let frac i = float_of_int counts.(i) /. float_of_int n in
  Helpers.check_bool "vc fraction" true (Float.abs (frac 0 -. 0.5) < 0.02);
  Helpers.check_bool "l2 fraction" true (Float.abs (frac 1 -. 0.3) < 0.02);
  Helpers.check_bool "dram fraction" true (Float.abs (frac 2 -. 0.2) < 0.02)

let test_profile_validation () =
  Helpers.check_bool "fractions must sum to 1" true
    (try
       ignore (Profile.make ~vc:0.5 ~l2:0.1 ~dram:0.1);
       false
     with Invalid_argument _ -> true);
  Helpers.check_bool "dominant streaming" true
    (Profile.dominant Profile.streaming = Level.Dram);
  Helpers.check_bool "dominant resident" true
    (Profile.dominant Profile.cache_resident = Level.Vec_cache);
  Helpers.check_bool "dominant l2" true
    (Profile.dominant Profile.l2_resident = Level.L2)

let test_mob_overlap () =
  let m = Mob.create ~capacity:4 () in
  let id1 =
    Option.get (Mob.insert m ~core:0 ~arr:1 ~base:0 ~len:8 ~is_store:true)
  in
  (* A read overlapping an in-flight store conflicts. *)
  Helpers.check_bool "read vs store conflicts" true
    (Mob.conflicts m ~arr:1 ~base:4 ~len:4 ~is_store:false);
  (* A read overlapping an in-flight load does not. *)
  let _id2 =
    Option.get (Mob.insert m ~core:0 ~arr:2 ~base:0 ~len:8 ~is_store:false)
  in
  Helpers.check_bool "read vs load fine" false
    (Mob.conflicts m ~arr:2 ~base:0 ~len:8 ~is_store:false);
  (* A write overlapping anything conflicts. *)
  Helpers.check_bool "write vs load conflicts" true
    (Mob.conflicts m ~arr:2 ~base:7 ~len:2 ~is_store:true);
  (* Disjoint ranges never conflict. *)
  Helpers.check_bool "disjoint fine" false
    (Mob.conflicts m ~arr:1 ~base:8 ~len:8 ~is_store:true);
  Mob.remove m id1;
  Helpers.check_bool "after removal no conflict" false
    (Mob.conflicts m ~arr:1 ~base:4 ~len:4 ~is_store:false)

let test_mob_capacity () =
  let m = Mob.create ~capacity:2 () in
  ignore (Mob.insert m ~core:0 ~arr:0 ~base:0 ~len:1 ~is_store:false);
  ignore (Mob.insert m ~core:1 ~arr:0 ~base:1 ~len:1 ~is_store:false);
  Helpers.check_bool "full" true
    (Mob.insert m ~core:0 ~arr:0 ~base:2 ~len:1 ~is_store:false = None);
  Helpers.check_int "per-core outstanding" 1 (Mob.outstanding_of m ~core:1)

(* Same-array conflict lists vs a brute-force scan of the live entries
   over random insert/remove/clear sequences. Array ids include negative
   ones and ones at and past the MOB's list span (256), which take the
   full-sweep path; small bases and lengths (zero included) make
   adjacent, non-overlapping ranges common. *)
let test_mob_conflicts_vs_brute_force () =
  let module Rng = Occamy_util.Rng in
  let rng = Rng.create ~seed:5 in
  let arrs = [| -7; -1; 0; 1; 2; 255; 256; 1000 |] in
  let pick () = arrs.(Rng.int rng (Array.length arrs)) in
  let expect live ~arr ~base ~len ~is_store =
    List.exists
      (fun (_, a, b, l, st) ->
        a = arr && b < base + len && base < b + l && (is_store || st))
      live
  in
  for _seq = 1 to 100 do
    let cap = 1 + Rng.int rng 12 in
    let m = Mob.create ~capacity:cap () in
    let live = ref [] in
    for _op = 1 to 60 do
      (match Rng.int rng 10 with
      | 0 when Rng.bool rng 0.2 ->
        Mob.clear m;
        live := []
      | 0 | 1 | 2 | 3 -> (
        match !live with
        | [] -> ()
        | l ->
          let ((s, _, _, _, _) as e) =
            List.nth l (Rng.int rng (List.length l))
          in
          Mob.remove_slot m s;
          live := List.filter (fun x -> x != e) l)
      | _ ->
        if not (Mob.is_full m) then begin
          let arr = pick () and base = Rng.int rng 12 in
          let len = Rng.int rng 5 in
          let is_store = Rng.bool rng 0.5 in
          let s = Mob.insert_slot m ~core:0 ~arr ~base ~len ~is_store in
          live := (s, arr, base, len, is_store) :: !live
        end);
      Helpers.check_int "size" (List.length !live) (Mob.size m);
      Array.iter
        (fun arr ->
          for base = 0 to 13 do
            for len = 0 to 3 do
              List.iter
                (fun is_store ->
                  let want = expect !live ~arr ~base ~len ~is_store in
                  if Mob.conflicts m ~arr ~base ~len ~is_store <> want then
                    Alcotest.failf "conflicts arr %d [%d,+%d) store %b: want %b"
                      arr base len is_store want)
                [ false; true ]
            done
          done)
        arrs
    done
  done;
  (* The asymmetry and adjacency, spelled out. *)
  let m = Mob.create ~capacity:4 () in
  ignore (Mob.insert_slot m ~core:0 ~arr:3 ~base:0 ~len:4 ~is_store:false);
  Helpers.check_bool "read vs load" false
    (Mob.conflicts m ~arr:3 ~base:2 ~len:4 ~is_store:false);
  Helpers.check_bool "write vs load" true
    (Mob.conflicts m ~arr:3 ~base:2 ~len:4 ~is_store:true);
  Helpers.check_bool "adjacent write" false
    (Mob.conflicts m ~arr:3 ~base:4 ~len:4 ~is_store:true);
  Helpers.check_bool "zero-length write at the end" false
    (Mob.conflicts m ~arr:3 ~base:4 ~len:0 ~is_store:true)

let qcheck_channel_monotone =
  QCheck2.Test.make ~name:"channel completions are monotone for queued requests"
    QCheck2.Gen.(list_size (int_range 1 30) (int_range 1 512))
    (fun sizes ->
      let ch = Channel.create ~name:"q" ~bytes_per_cycle:16.0 in
      let times =
        List.map
          (fun b -> Channel.request ch ~now:0.0 ~bytes:(float_of_int b))
          sizes
      in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono times)

let qcheck_mob_no_leak =
  QCheck2.Test.make ~name:"mob insert/remove never leaks"
    QCheck2.Gen.(list_size (int_range 1 60) (int_range 0 7))
    (fun ops ->
      let m = Mob.create ~capacity:8 () in
      let live = ref [] in
      List.iter
        (fun base ->
          if List.length !live > 4 then begin
            match !live with
            | id :: rest ->
              Mob.remove m id;
              live := rest
            | [] -> ()
          end
          else
            match Mob.insert m ~core:0 ~arr:0 ~base ~len:1 ~is_store:false with
            | Some id -> live := id :: !live
            | None -> ())
        ops;
      Mob.size m = List.length !live)

let suites =
  [
    ( "mem",
      [
        Alcotest.test_case "channel bandwidth" `Quick test_channel_bandwidth;
        Alcotest.test_case "channel utilisation" `Quick test_channel_utilisation;
        Alcotest.test_case "hierarchy latencies" `Quick test_hierarchy_latencies;
        Alcotest.test_case "hierarchy contention" `Quick test_hierarchy_contention;
        Alcotest.test_case "profile classify" `Quick test_profile_classify;
        Alcotest.test_case "profile validation" `Quick test_profile_validation;
        Alcotest.test_case "mob overlap" `Quick test_mob_overlap;
        Alcotest.test_case "mob capacity" `Quick test_mob_capacity;
        Alcotest.test_case "mob conflicts vs brute force" `Quick
          test_mob_conflicts_vs_brute_force;
      ] );
    Helpers.qsuite "mem.qcheck" [ qcheck_channel_monotone; qcheck_mob_no_leak ];
  ]

(* --- additional properties ----------------------------------------- *)

let qcheck_hierarchy_conserves_bytes =
  (* Every byte requested shows up in exactly the traversed channels. *)
  QCheck2.Test.make ~name:"hierarchy books bytes on every traversed level"
    QCheck2.Gen.(list_size (int_range 1 40) (pair (int_range 0 2) (int_range 1 256)))
    (fun reqs ->
      let h = Hierarchy.create () in
      let expected = Array.make 3 0.0 in
      List.iter
        (fun (lvl, bytes) ->
          let level =
            match lvl with 0 -> Level.Vec_cache | 1 -> Level.L2 | _ -> Level.Dram
          in
          ignore (Hierarchy.access h ~now:0 ~level ~bytes);
          for d = 0 to Level.depth level do
            expected.(d) <- expected.(d) +. float_of_int bytes
          done)
        reqs;
      List.for_all
        (fun level ->
          Float.abs
            (Channel.bytes_moved (Hierarchy.channel h level)
            -. expected.(Level.depth level))
          < 1e-9)
        Level.all)

let qcheck_prefetch_only_changes_latency =
  (* Prefetched accesses observe shorter latency but identical bandwidth
     occupancy. *)
  QCheck2.Test.make ~name:"prefetch cuts latency, keeps bandwidth"
    QCheck2.Gen.(int_range 1 512)
    (fun bytes ->
      let h1 = Hierarchy.create () and h2 = Hierarchy.create () in
      let t_norm = Hierarchy.access h1 ~now:0 ~level:Level.Dram ~bytes in
      let t_pre =
        Hierarchy.access ~prefetched:true h2 ~now:0 ~level:Level.Dram ~bytes
      in
      t_pre <= t_norm
      && Channel.bytes_moved (Hierarchy.channel h1 Level.Dram)
         = Channel.bytes_moved (Hierarchy.channel h2 Level.Dram))

let suites =
  suites
  @ [
      Helpers.qsuite "mem.qcheck2"
        [ qcheck_hierarchy_conserves_bytes; qcheck_prefetch_only_changes_latency ];
    ]
