(* The server test suite: protocol round-trips for every request and
   response variant, registry/service semantics in process, and a
   socket-level integration test against a spawned clio_serve.

   The integration test starts the real binary with Unix.create_process
   (never fork: the test runner may hold a domain pool under CLIO_JOBS,
   and forking a multi-domain OCaml 5 process is undefined). *)

open Server
module P = Protocol
module V = Relational.Value

(* --- protocol round-trips --- *)

let all_requests : P.envelope list =
  let e ?session id request = { P.id; session; request; trace_id = None } in
  [
    e 0 P.Ping;
    e 1 (P.Open_session P.Paper);
    e 2 (P.Open_session (P.Chain { n = 3; rows = 100; seed = 7 }));
    e 3 (P.Open_session (P.Star { leaves = 4; rows = 50; seed = 0 }));
    e ~session:"s1" 4 P.Close_session;
    e ~session:"s1" 5 (P.Evaluate { what = P.Dg; limit = None });
    e ~session:"s1" 6 (P.Evaluate { what = P.Fj; limit = Some 10 });
    e ~session:"s1" 7 (P.Evaluate { what = P.Target; limit = Some 0 });
    e ~session:"s1" 8 (P.Offer { start = "Children"; goal = "PhoneDir"; max_len = 2 });
    e ~session:"s1" 9 P.Rotate;
    e ~session:"s1" 10 (P.Select { entry = 3 });
    e ~session:"s1" 11 (P.Delete { entry = 2 });
    e ~session:"s1" 12 P.Confirm;
    e ~session:"s1" 13
      (P.Insert
         {
           relation = "Children";
           rows =
             [
               [| V.String "a\"b\\c"; V.Null; V.Int (-3) |];
               [| V.Float 1.5; V.Bool true; V.String "\n\t" |];
             ];
         });
    e ~session:"s1" 14 P.Rank;
    e ~session:"s2" 15 P.Stats;
    e 16 P.Stats;
    e ~session:"s1" 17 (P.Branch { name = "exp-1" });
    e ~session:"s1" 18 (P.Checkout { name = "main" });
    e ~session:"s1" 19 (P.Merge { from_ = "exp-1" });
    e ~session:"s1" 20 (P.Diff { other = "exp-1" });
    e ~session:"s1" 21 P.Branches;
    e 22 (P.Open_branch { of_session = "s1"; branch = "exp-1" });
    e 23 P.Shutdown;
  ]

let all_responses : P.response list =
  [
    P.ok 0 P.Pong;
    P.ok 1
      (P.Opened { session = "s1"; relations = [ "A"; "B" ]; version = 12 });
    P.ok 2 P.Closed;
    P.ok 3
      (P.Evaluated
         {
           what = P.Dg;
           count = 9;
           scheme = [ "C.id"; "P.id" ];
           digest = "d41d8cd98f00b204e9800998ecf8427e";
           rows = None;
         });
    P.ok 4
      (P.Evaluated
         {
           what = P.Target;
           count = 2;
           scheme = [ "name" ];
           digest = "x";
           rows = Some [ [ "Zoe"; "7" ]; [ "Ann"; "" ] ];
         });
    P.ok 5
      (P.Entries
         [
           {
             P.entry = 1;
             label = "walk via Parents2";
             graph = "Children -- Parents2";
             active = true;
             score = Some 3;
           };
           { P.entry = 2; label = ""; graph = "g"; active = false; score = None };
         ]);
    P.ok 6 (P.Inserted { fresh = true; version = 44 });
    P.ok 7 (P.Stats_report [ ("server.requests_total", 12.); ("x.y", 0.5) ]);
    P.ok 8 P.Bye;
    P.ok 9 (P.Branched { branch = "exp-1"; version = 7 });
    P.ok 10 (P.Checked_out { branch = "main"; version = 3 });
    P.ok 11 (P.Merged { branch = "main"; rows = 2; version = 9 });
    P.ok 12
      (P.Branch_list
         { current = "exp-1"; branches = [ ("main", 3); ("exp-1", 7) ] });
    P.error (Some 9) P.Parse_error "bad frame";
    P.error None P.Bad_request "no op";
    P.error (Some 11) P.Unknown_session "no session \"s9\"";
    P.error (Some 12) P.Overloaded "queue full";
    P.error (Some 13) P.Unavailable "draining";
    P.error (Some 14) P.Internal "boom";
  ]

let test_request_roundtrip () =
  List.iter
    (fun env ->
      let line = P.encode_request env in
      match P.parse_request line with
      | Error (_, _, msg) -> Alcotest.failf "%s did not parse: %s" line msg
      | Ok env' ->
          Alcotest.(check string)
            (Printf.sprintf "request %d round-trips" env.P.id)
            line (P.encode_request env'))
    all_requests

(* The bytes of [all_requests], one frame each, as the protocol has
   always emitted them: a change to either codec shows here, which the
   self round-trip above cannot see. *)
let pinned_request_frames =
  [
    {|{"id":0,"op":"ping"}|};
    {|{"id":1,"op":"open","scenario":{"kind":"paper"}}|};
    {|{"id":2,"op":"open","scenario":{"kind":"chain","n":3,"rows":100,"seed":7}}|};
    {|{"id":3,"op":"open","scenario":{"kind":"star","leaves":4,"rows":50,"seed":0}}|};
    {|{"id":4,"op":"close","session":"s1"}|};
    {|{"id":5,"op":"evaluate","session":"s1","what":"dg"}|};
    {|{"id":6,"op":"evaluate","session":"s1","what":"fj","limit":10}|};
    {|{"id":7,"op":"evaluate","session":"s1","what":"target","limit":0}|};
    {|{"id":8,"op":"offer","session":"s1","start":"Children","goal":"PhoneDir","max_len":2}|};
    {|{"id":9,"op":"rotate","session":"s1"}|};
    {|{"id":10,"op":"select","session":"s1","entry":3}|};
    {|{"id":11,"op":"delete","session":"s1","entry":2}|};
    {|{"id":12,"op":"confirm","session":"s1"}|};
    {|{"id":13,"op":"insert","session":"s1","relation":"Children","rows":[["a\"b\\c",null,-3],[1.5,true,"\n\t"]]}|};
    {|{"id":14,"op":"rank","session":"s1"}|};
    {|{"id":15,"op":"stats","session":"s2"}|};
    {|{"id":16,"op":"stats"}|};
    {|{"id":17,"op":"branch","session":"s1","name":"exp-1"}|};
    {|{"id":18,"op":"checkout","session":"s1","name":"main"}|};
    {|{"id":19,"op":"merge","session":"s1","from":"exp-1"}|};
    {|{"id":20,"op":"diff","session":"s1","other":"exp-1"}|};
    {|{"id":21,"op":"branches","session":"s1"}|};
    {|{"id":22,"op":"open_branch","of_session":"s1","branch":"exp-1"}|};
    {|{"id":23,"op":"shutdown"}|};
  ]

let test_request_frames_pinned () =
  List.iter2
    (fun (env : P.envelope) frame ->
      Alcotest.(check string)
        (Printf.sprintf "request %d bytes" env.id)
        frame (P.encode_request env))
    all_requests pinned_request_frames

let test_response_roundtrip () =
  List.iter
    (fun resp ->
      let line = P.encode_response resp in
      match P.parse_response line with
      | Error msg -> Alcotest.failf "%s did not parse: %s" line msg
      | Ok resp' ->
          Alcotest.(check string) "response round-trips" line
            (P.encode_response resp'))
    all_responses

let test_parse_request_rejects () =
  let cases =
    [
      ("not json", "{oops", P.Parse_error, None);
      ("not an object", "[1,2]", P.Bad_request, None);
      ("missing id", {|{"op":"ping"}|}, P.Bad_request, None);
      ("fractional id", {|{"id":1.5,"op":"ping"}|}, P.Bad_request, None);
      ("negative id", {|{"id":-1,"op":"ping"}|}, P.Bad_request, None);
      ("missing op", {|{"id":3}|}, P.Bad_request, Some 3);
      ("unknown op", {|{"id":4,"op":"frobnicate"}|}, P.Bad_request, Some 4);
      ( "bad scenario",
        {|{"id":5,"op":"open","scenario":{"kind":"cube"}}|},
        P.Bad_request,
        Some 5 );
      ( "bad what",
        {|{"id":6,"op":"evaluate","session":"s1","what":"qq"}|},
        P.Bad_request,
        Some 6 );
      ( "non-finite via huge literal is a number, id recovered",
        {|{"id":7,"op":"evaluate","session":"s1","what":"dg","limit":"x"}|},
        P.Bad_request,
        Some 7 );
      ( "fractional entry",
        {|{"id":8,"op":"select","session":"s1","entry":1.5}|},
        P.Bad_request,
        Some 8 );
      ( "string entry",
        {|{"id":9,"op":"delete","session":"s1","entry":"3"}|},
        P.Bad_request,
        Some 9 );
      ( "max_len beyond the integer range",
        {|{"id":10,"op":"offer","session":"s1","start":"A","goal":"B","max_len":1e16}|},
        P.Bad_request,
        Some 10 );
      ( "rows not an array",
        {|{"id":11,"op":"insert","session":"s1","relation":"R","rows":{}}|},
        P.Bad_request,
        Some 11 );
      ( "object cell",
        {|{"id":12,"op":"insert","session":"s1","relation":"R","rows":[[1,{}]]}|},
        P.Bad_request,
        Some 12 );
      ( "insert without relation",
        {|{"id":13,"op":"insert","session":"s1","rows":[[1]]}|},
        P.Bad_request,
        Some 13 );
    ]
  in
  List.iter
    (fun (label, line, code, id) ->
      match P.parse_request line with
      | Ok _ -> Alcotest.failf "%s unexpectedly parsed" label
      | Error (id', code', _) ->
          Alcotest.(check string) (label ^ ": code") (P.error_code_name code)
            (P.error_code_name code');
          Alcotest.(check (option int)) (label ^ ": id recovered") id id')
    cases;
  (* An optional field that is null counts as absent. *)
  match
    P.parse_request
      {|{"id":14,"op":"evaluate","session":"s1","what":"dg","limit":null}|}
  with
  | Ok env ->
      Alcotest.(check bool) "null limit is no limit" true
        (env.P.request = P.Evaluate { what = P.Dg; limit = None })
  | Error (_, _, msg) -> Alcotest.failf "null limit rejected: %s" msg

(* --- one op codec: wire frames and changelog lines ---

   An op verb's frame is the changelog's op line behind the envelope
   fields: decoding the frame gives the op back, the bytes after
   [id]/[op]/[session]/[trace_id] are the line's bytes after [op], and
   the line decodes to the op. *)

module J = Obs.Json
module Op = Version.Op

let op_gen =
  let open QCheck2.Gen in
  (* Floats with a fraction and at most nine significant digits: the
     emitter's precision, and never integral (those decode as [Int]). *)
  let cell =
    oneof
      [
        return V.Null;
        map (fun b -> V.Bool b) bool;
        map
          (fun i -> V.Int i)
          (int_range (-1_000_000_000_000_000) 1_000_000_000_000_000);
        map
          (fun k -> V.Float (float_of_int ((2 * k) + 1) /. 4.))
          (int_range (-500_000) 500_000);
        map
          (fun parts -> V.String (String.concat "" parts))
          (list_size (int_range 0 4)
             (oneofl
                [
                  "a"; "Zoe"; "\""; "\\"; "\n"; "\t"; "\x01"; "\x1f"; "\x7f";
                  "\xc3\xa9"; "\xe6\x97\xa5\xe6\x9c\xac"; " ";
                ]));
      ]
  in
  let name = oneofl [ "Children"; "R1"; "a\"b"; "\xc3\xa9t\xc3\xa9" ] in
  let int = int_range (-1000) 1000 in
  oneof
    [
      map2
        (fun relation rows -> Op.Insert { relation; rows })
        name
        (list_size (int_range 0 4) (array_size (int_range 0 5) cell));
      map3
        (fun start goal max_len -> Op.Offer { start; goal; max_len })
        name name int;
      return Op.Rotate;
      map (fun entry -> Op.Select { entry }) int;
      map (fun entry -> Op.Delete { entry }) int;
      return Op.Confirm;
    ]

let strip_close s = String.sub s 0 (String.length s - 1)

let prop_op_codec =
  QCheck2.Test.make ~name:"op frame = changelog line, both decode" ~count:300
    ~print:(fun op -> J.to_string (Op.to_json op))
    op_gen
    (fun op ->
      let env =
        {
          P.id = 7;
          session = Some "s1";
          request = P.request_of_op op;
          trace_id = Some "t-1";
        }
      in
      let frame = P.encode_request env in
      let decoded =
        match P.parse_request frame with
        | Ok env' -> P.op_of_request env'.P.request
        | Error (_, _, msg) -> QCheck2.Test.fail_reportf "%s: %s" frame msg
      in
      let envelope =
        strip_close
          (J.to_string
             (J.Obj
                [
                  ("id", J.Num 7.);
                  ("op", J.Str (Op.name op));
                  ("session", J.Str "s1");
                  ("trace_id", J.Str "t-1");
                ]))
      and line = J.to_string (Op.to_json op) in
      let op_head =
        strip_close (J.to_string (J.Obj [ ("op", J.Str (Op.name op)) ]))
      in
      let after prefix s =
        if String.starts_with ~prefix s then
          let n = String.length prefix in
          Some (String.sub s n (String.length s - n))
        else None
      in
      decoded = Some op
      && after envelope frame <> None
      && after envelope frame = after op_head line
      && Op.of_json (Op.to_json op) = Ok op)

(* Wire compatibility: an envelope or response without a trace id must
   encode to exactly the pre-trace-id bytes — no "trace_id" key at all —
   so old clients and captured transcripts stay byte-identical. *)
let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_trace_id_wire_compat () =
  let bare = { P.id = 1; session = None; request = P.Ping; trace_id = None } in
  Alcotest.(check bool) "absent trace id absent from the wire" false
    (contains ~needle:"trace_id" (P.encode_request bare));
  Alcotest.(check bool) "absent trace id absent from replies" false
    (contains ~needle:"trace_id" (P.encode_response (P.ok 1 P.Pong)));
  let traced = { bare with P.trace_id = Some "t-9" } in
  (match P.parse_request (P.encode_request traced) with
  | Ok env ->
      Alcotest.(check (option string)) "request trace id round-trips"
        (Some "t-9") env.P.trace_id
  | Error (_, _, msg) -> Alcotest.failf "traced request did not parse: %s" msg);
  (match P.parse_response (P.encode_response (P.ok ~trace_id:"t-9" 1 P.Pong)) with
  | Ok resp ->
      Alcotest.(check (option string)) "response trace id round-trips"
        (Some "t-9") resp.P.trace_id
  | Error msg -> Alcotest.failf "traced response did not parse: %s" msg);
  (* A pre-trace-id frame still parses (the field is genuinely optional). *)
  match P.parse_request {|{"id":1,"op":"ping"}|} with
  | Ok env ->
      Alcotest.(check (option string)) "old frames parse with no trace id"
        None env.P.trace_id
  | Error (_, _, msg) -> Alcotest.failf "old frame rejected: %s" msg

(* --- in-process service semantics --- *)

let with_service f =
  let registry = Registry.create ~jobs:1 () in
  f (Service.create registry)

let ok_result label = function
  | { P.result = Ok r; _ } -> r
  | { P.result = Error (code, msg); _ } ->
      Alcotest.failf "%s failed: %s (%s)" label (P.error_code_name code) msg

let test_service_session_flow () =
  with_service @@ fun service ->
  let next = ref 0 in
  let call ?session request =
    incr next;
    Service.handle service { P.id = !next; session; request; trace_id = None }
  in
  let sid =
    match ok_result "open" (call (P.Open_session P.Paper)) with
    | P.Opened { session; relations; _ } ->
        Alcotest.(check bool) "paper relations present" true
          (List.mem "Children" relations);
        session
    | _ -> Alcotest.fail "expected Opened"
  in
  (match
     ok_result "offer"
       (call ~session:sid
          (P.Offer { start = "Children"; goal = "PhoneDir"; max_len = 2 }))
   with
  | P.Entries entries ->
      Alcotest.(check bool) "offer yields alternatives" true
        (List.length entries >= 2)
  | _ -> Alcotest.fail "expected Entries");
  let digest_of what =
    match
      ok_result "evaluate" (call ~session:sid (P.Evaluate { what; limit = Some 5 }))
    with
    | P.Evaluated info -> info
    | _ -> Alcotest.fail "expected Evaluated"
  in
  let dg = digest_of P.Dg in
  Alcotest.(check bool) "D(G) nonempty" true (dg.P.count > 0);
  Alcotest.(check int) "rows honoured" (min 5 dg.P.count)
    (List.length (Option.get dg.P.rows));
  (match ok_result "rank" (call ~session:sid P.Rank) with
  | P.Entries entries ->
      List.iter
        (fun e ->
          Alcotest.(check bool) "rank fills scores" true (e.P.score <> None))
        entries
  | _ -> Alcotest.fail "expected Entries");
  (* Unknown relation in insert → Bad_request, session survives. *)
  (match
     call ~session:sid (P.Insert { relation = "Nope"; rows = [ [| V.Int 1 |] ] })
   with
  | { P.result = Error (P.Bad_request, _); _ } -> ()
  | _ -> Alcotest.fail "bad insert should be Bad_request");
  (match ok_result "stats" (call ~session:sid P.Stats) with
  | P.Stats_report kvs ->
      let get k = List.assoc k kvs in
      Alcotest.(check bool) "session.requests counted" true
        (get "session.requests" >= 4.);
      Alcotest.(check bool) "session.errors counted" true
        (get "session.errors" >= 1.);
      Alcotest.(check bool) "per-verb counter present" true
        (List.mem_assoc "session.ops.evaluate" kvs)
  | _ -> Alcotest.fail "expected Stats_report");
  (match ok_result "server stats" (call P.Stats) with
  | P.Stats_report kvs ->
      Alcotest.(check bool) "server.sessions.open" true
        (List.assoc "server.sessions.open" kvs = 1.)
  | _ -> Alcotest.fail "expected Stats_report");
  (match call ~session:"s999" P.Rotate with
  | { P.result = Error (P.Unknown_session, _); _ } -> ()
  | _ -> Alcotest.fail "unknown session should be rejected");
  (match ok_result "close" (call ~session:sid P.Close_session) with
  | P.Closed -> ()
  | _ -> Alcotest.fail "expected Closed");
  match call ~session:sid P.Rotate with
  | { P.result = Error (P.Unknown_session, _); _ } -> ()
  | _ -> Alcotest.fail "closed session should be gone"

let test_service_isolation_and_sharing () =
  with_service @@ fun service ->
  let next = ref 0 in
  let call ?session request =
    incr next;
    Service.handle service { P.id = !next; session; request; trace_id = None }
  in
  let open_one () =
    match ok_result "open" (call (P.Open_session P.Paper)) with
    | P.Opened { session; version; _ } -> (session, version)
    | _ -> Alcotest.fail "expected Opened"
  in
  let s1, v1 = open_one () in
  let s2, v2 = open_one () in
  Alcotest.(check int) "same resolved database version (shared cache keys)" v1
    v2;
  let digest sid =
    match
      ok_result "evaluate"
        (call ~session:sid (P.Evaluate { what = P.Dg; limit = None }))
    with
    | P.Evaluated info -> info.P.digest
    | _ -> Alcotest.fail "expected Evaluated"
  in
  let d1 = digest s1 in
  (* s2 inserts: it forks to a fresh version; s1's view must not move. *)
  (match
     ok_result "insert"
       (call ~session:s2
          (P.Insert
             {
               relation = "Children";
               rows =
                 [
                   [|
                     V.String "999"; V.String "New"; V.Int 1; V.String "103";
                     V.String "104"; V.String "d31";
                   |];
                 ];
             }))
   with
  | P.Inserted { fresh; version } ->
      Alcotest.(check bool) "insert forks a fresh version" true fresh;
      Alcotest.(check bool) "version advanced" true (version > v2)
  | _ -> Alcotest.fail "expected Inserted");
  Alcotest.(check string) "s1 unaffected by s2's insert" d1 (digest s1);
  Alcotest.(check bool) "s2 sees its own insert" true (digest s2 <> d1)

let chain_row k tag =
  [ [| V.Int (1_000_000 + k); V.String tag; V.Int k |] ]

let test_service_branching_flow () =
  with_service @@ fun service ->
  let next = ref 0 in
  let call ?session request =
    incr next;
    Service.handle service { P.id = !next; session; request; trace_id = None }
  in
  let sid =
    match
      ok_result "open" (call (P.Open_session (P.Chain { n = 3; rows = 50; seed = 3 })))
    with
    | P.Opened { session; _ } -> session
    | _ -> Alcotest.fail "expected Opened"
  in
  let digest () =
    match
      ok_result "evaluate" (call ~session:sid (P.Evaluate { what = P.Dg; limit = None }))
    with
    | P.Evaluated info -> info.P.digest
    | _ -> Alcotest.fail "expected Evaluated"
  in
  (match ok_result "branches" (call ~session:sid P.Branches) with
  | P.Branch_list { current = "main"; branches = [ ("main", _) ] } -> ()
  | _ -> Alcotest.fail "a fresh session lives on main alone");
  let trunk = digest () in
  (match ok_result "branch" (call ~session:sid (P.Branch { name = "exp" })) with
  | P.Branched { branch = "exp"; _ } -> ()
  | _ -> Alcotest.fail "expected Branched");
  (* The branch verb switches the session onto the fork; a commit there
     must not move the trunk. *)
  (match
     ok_result "insert"
       (call ~session:sid (P.Insert { relation = "R1"; rows = chain_row 1 "x" }))
   with
  | P.Inserted { fresh = true; _ } -> ()
  | _ -> Alcotest.fail "expected a fresh Inserted");
  let forked = digest () in
  Alcotest.(check bool) "the fork diverged" true (forked <> trunk);
  (match ok_result "checkout" (call ~session:sid (P.Checkout { name = "main" })) with
  | P.Checked_out { branch = "main"; _ } -> ()
  | _ -> Alcotest.fail "expected Checked_out");
  Alcotest.(check string) "trunk unmoved by the fork's insert" trunk (digest ());
  (match ok_result "diff" (call ~session:sid (P.Diff { other = "exp" })) with
  | P.Stats_report kvs ->
      Alcotest.(check bool) "diff is stats-shaped" true
        (List.mem_assoc "diff.lca_cid" kvs)
  | _ -> Alcotest.fail "expected Stats_report");
  (match ok_result "merge" (call ~session:sid (P.Merge { from_ = "exp" })) with
  | P.Merged { branch = "main"; rows = 1; _ } -> ()
  | _ -> Alcotest.fail "merge should fold the fork's one insert");
  Alcotest.(check string) "merged trunk evaluates like the fork" forked (digest ());
  (* Store-level invariants surface as Bad_request, session intact. *)
  (match call ~session:sid (P.Branch { name = "exp" }) with
  | { P.result = Error (P.Bad_request, _); _ } -> ()
  | _ -> Alcotest.fail "duplicate branch name should be Bad_request");
  (match call ~session:sid (P.Checkout { name = "nope" }) with
  | { P.result = Error (P.Bad_request, _); _ } -> ()
  | _ -> Alcotest.fail "unknown branch should be Bad_request");
  (* Open_branch: a second session on the same store, parked on the fork;
     it sees the fork's state and its commits land in the shared store. *)
  let sid2 =
    match
      ok_result "open_branch"
        (call (P.Open_branch { of_session = sid; branch = "exp" }))
    with
    | P.Opened { session; _ } -> session
    | _ -> Alcotest.fail "expected Opened"
  in
  Alcotest.(check bool) "distinct session ids" true (sid2 <> sid);
  (match
     ok_result "evaluate" (call ~session:sid2 (P.Evaluate { what = P.Dg; limit = None }))
   with
  | P.Evaluated info ->
      Alcotest.(check string) "the new session sees the fork" forked info.P.digest
  | _ -> Alcotest.fail "expected Evaluated");
  (match
     ok_result "insert"
       (call ~session:sid2 (P.Insert { relation = "R1"; rows = chain_row 2 "y" }))
   with
  | P.Inserted _ -> ()
  | _ -> Alcotest.fail "expected Inserted");
  (match ok_result "checkout exp" (call ~session:sid (P.Checkout { name = "exp" })) with
  | P.Checked_out _ -> ()
  | _ -> Alcotest.fail "expected Checked_out");
  (match
     ok_result "evaluate" (call ~session:sid2 (P.Evaluate { what = P.Dg; limit = None }))
   with
  | P.Evaluated info ->
      Alcotest.(check string) "one store: both sessions see the commit"
        (digest ()) info.P.digest
  | _ -> Alcotest.fail "expected Evaluated");
  (match call (P.Open_branch { of_session = "s999"; branch = "main" }) with
  | { P.result = Error (P.Unknown_session, _); _ } -> ()
  | _ -> Alcotest.fail "open_branch of an unknown session");
  match call (P.Open_branch { of_session = sid; branch = "nope" }) with
  | { P.result = Error (P.Bad_request, _); _ } -> ()
  | _ -> Alcotest.fail "open_branch of an unknown branch"

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    try Unix.rmdir path with Unix.Unix_error _ -> ()
  end
  else try Sys.remove path with Sys_error _ -> ()

let test_registry_persist_restore () =
  let dir = Filename.temp_file "clio_test_registry" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
  @@ fun () ->
  let registry = Registry.create ~jobs:1 () in
  let service = Service.create registry in
  let next = ref 0 in
  let call svc ?session request =
    incr next;
    Service.handle svc { P.id = !next; session; request; trace_id = None }
  in
  let sid =
    match
      ok_result "open"
        (call service (P.Open_session (P.Chain { n = 3; rows = 50; seed = 5 })))
    with
    | P.Opened { session; _ } -> session
    | _ -> Alcotest.fail "expected Opened"
  in
  ignore (ok_result "branch" (call service ~session:sid (P.Branch { name = "exp" })));
  ignore
    (ok_result "insert"
       (call service ~session:sid (P.Insert { relation = "R1"; rows = chain_row 7 "z" })));
  let sid2 =
    match
      ok_result "open_branch"
        (call service (P.Open_branch { of_session = sid; branch = "main" }))
    with
    | P.Opened { session; _ } -> session
    | _ -> Alcotest.fail "expected Opened"
  in
  let digest svc sid =
    match
      ok_result "evaluate"
        (call svc ~session:sid (P.Evaluate { what = P.Dg; limit = None }))
    with
    | P.Evaluated info -> info.P.digest
    | _ -> Alcotest.fail "expected Evaluated"
  in
  let d1 = digest service sid and d2 = digest service sid2 in
  Alcotest.(check bool) "the two sessions sit on different branches" true (d1 <> d2);
  Registry.persist registry ~dir;
  (* A cold process: fresh registry, same directory — same sessions, same
     branch positions, same bytes. *)
  let registry' = Registry.create ~jobs:1 () in
  Alcotest.(check int) "both sessions restored" 2 (Registry.restore registry' ~dir);
  let service' = Service.create registry' in
  Alcotest.(check string) "fork session survives the restart" d1
    (digest service' sid);
  Alcotest.(check string) "trunk session survives the restart" d2
    (digest service' sid2);
  (match
     ok_result "branches" (call service' ~session:sid P.Branches)
   with
  | P.Branch_list { current = "exp"; branches } ->
      Alcotest.(check (list string)) "branch list survives" [ "main"; "exp" ]
        (List.map fst branches)
  | _ -> Alcotest.fail "expected Branch_list on exp");
  (* The restored store is shared again: both restored sessions observe a
     post-restart merge. *)
  (match ok_result "merge" (call service' ~session:sid2 (P.Merge { from_ = "exp" })) with
  | P.Merged { rows = 1; _ } -> ()
  | _ -> Alcotest.fail "merge after restart should fold the insert");
  Alcotest.(check string) "post-restart merge visible across sessions" d1
    (digest service' sid2);
  (* And new sessions never collide with restored ids. *)
  match ok_result "open" (call service' (P.Open_session P.Paper)) with
  | P.Opened { session; _ } ->
      Alcotest.(check bool) "fresh sid distinct" true
        (session <> sid && session <> sid2)
  | _ -> Alcotest.fail "expected Opened"

let test_service_draining () =
  with_service @@ fun service ->
  let resp = Service.handle service { P.id = 1; session = None; request = P.Shutdown; trace_id = None } in
  (match resp.P.result with
  | Ok P.Bye -> ()
  | _ -> Alcotest.fail "expected Bye");
  Alcotest.(check bool) "draining flag set" true (Service.draining service);
  match Service.handle service { P.id = 2; session = None; request = P.Ping; trace_id = None } with
  | { P.result = Error (P.Unavailable, _); _ } -> ()
  | _ -> Alcotest.fail "requests while draining should be Unavailable"

(* --- load generator, in process --- *)

let test_loadgen_inprocess_verified () =
  with_service @@ fun service ->
  let spec =
    { Loadgen.scenario = P.Paper; clients = 4; ops = 12; limit = None; keep_open = false }
  in
  let o = Loadgen.run_inprocess ~verify:true service spec in
  Alcotest.(check int) "no protocol errors" 0 o.Loadgen.errors;
  Alcotest.(check (option int)) "byte-identical vs sequential replay" (Some 0)
    o.Loadgen.mismatches;
  let evaluations =
    List.length
      (List.filter
         (function P.Evaluate _ -> true | _ -> false)
         (Loadgen.client_requests spec ~client:0))
  in
  Alcotest.(check bool) "every client evaluated" true
    (evaluations > 0
    && Array.for_all (fun ds -> List.length ds = evaluations) o.Loadgen.digests)

(* A served [evaluate fj] reads the cached F(J) in place: the columnar
   relation the joins built is not boxed by the digest or the rows. *)
let test_evaluate_fj_stays_columnar () =
  let registry = Registry.create ~jobs:1 () in
  let service = Service.create registry in
  let next = ref 0 in
  let call ?session request =
    incr next;
    Service.handle service { P.id = !next; session; request; trace_id = None }
  in
  let sid =
    match
      ok_result "open" (call (P.Open_session (P.Chain { n = 3; rows = 80; seed = 4 })))
    with
    | P.Opened { session; _ } -> session
    | _ -> Alcotest.fail "expected Opened"
  in
  ignore
    (ok_result "offer"
       (call ~session:sid (P.Offer { start = "R1"; goal = "R3"; max_len = 3 })));
  let info =
    match
      ok_result "evaluate"
        (call ~session:sid (P.Evaluate { what = P.Fj; limit = Some 4 }))
    with
    | P.Evaluated info -> info
    | _ -> Alcotest.fail "expected Evaluated"
  in
  let ws = Registry.ws (Option.get (Registry.find registry sid)) in
  let graph = (Clio.Workspace.active ws).Clio.Workspace.mapping.Clio.Mapping.graph in
  match
    Engine.Eval_cache.peek_fj
      (Option.get (Registry.cache registry))
      ~version:(Relational.Database.version (Clio.Workspace.db ws))
      (Engine.Graph_key.of_graph graph)
  with
  | None -> Alcotest.fail "F(J) not cached"
  | Some rel ->
      Alcotest.(check bool) "cached F(J) holds no boxed array" true
        (match Relational.Relation.view rel with
        | Relational.Relation.Columns _ -> true
        | Relational.Relation.Boxed _ -> false);
      Alcotest.(check string) "digest of the columnar text"
        (Digest.to_hex (Digest.string (Relational.Render.relation rel)))
        info.P.digest;
      let first =
        List.filteri (fun i _ -> i < 4) (Relational.Relation.tuples rel)
        |> List.map (fun t -> Array.to_list (Array.map V.to_string t))
      in
      Alcotest.(check (option (list (list string)))) "rows read in place"
        (Some first) info.P.rows

(* --- trace echo and telemetry attribution, in process --- *)

let test_service_trace_echo () =
  with_service @@ fun service ->
  let traced =
    Service.handle service
      { P.id = 1; session = None; request = P.Ping; trace_id = Some "cli-7" }
  in
  Alcotest.(check (option string)) "client trace id echoed" (Some "cli-7")
    traced.P.trace_id;
  let bare =
    Service.handle service
      { P.id = 2; session = None; request = P.Ping; trace_id = None }
  in
  Alcotest.(check (option string))
    "no trace id sent, none echoed (old clients unchanged)" None
    bare.P.trace_id;
  Alcotest.(check bool) "echo is byte-invisible to old clients" false
    (let enc = P.encode_response bare in
     contains ~needle:"trace_id" enc)

let with_obs_off f () =
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let test_service_telemetry_attribution =
  with_obs_off @@ fun () ->
  Obs.enable ();
  Obs.reset ();
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "clio-exemplars-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let log_path = Filename.temp_file "clio_serve_test" ".log" in
  let telemetry =
    Server.Telemetry.create
      ~log:(Obs.Event_log.create ~level:Obs.Event_log.Debug log_path)
      ~slow_ms:0. ~exemplar_dir:dir ()
  in
  Fun.protect
    ~finally:(fun () ->
      Server.Telemetry.close telemetry;
      (try Sys.remove log_path with Sys_error _ -> ());
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ()
      end)
  @@ fun () ->
  let registry = Registry.create ~jobs:1 () in
  let service = Service.create registry in
  Service.set_telemetry service telemetry;
  let call ?session ?trace_id id request =
    Service.handle service { P.id; session; request; trace_id }
  in
  let sid =
    match call ~trace_id:"att-1" 1 (P.Open_session P.Paper) with
    | { P.result = Ok (P.Opened { session; _ }); _ } -> session
    | _ -> Alcotest.fail "expected Opened"
  in
  (match
     call ~session:sid ~trace_id:"att-2" 2
       (P.Evaluate { what = P.Fj; limit = None })
   with
  | { P.result = Ok (P.Evaluated _); trace_id = Some "att-2"; _ } -> ()
  | _ -> Alcotest.fail "expected traced Evaluated");
  ignore (call ~session:sid 3 P.Close_session);
  Server.Telemetry.flush telemetry;
  (* The event log carries one request.complete per request, each with the
     client's trace id, a latency, and (for the evaluate) a cache
     breakdown. *)
  let docs = List.map Obs.Json.parse_exn (read_lines log_path) in
  let completes =
    List.filter
      (fun d -> Obs.Json.member "event" d = Some (Obs.Json.Str "request.complete"))
      docs
  in
  Alcotest.(check int) "one completion line per request" 3
    (List.length completes);
  let field k d =
    match Obs.Json.member k d with Some v -> v | None -> Obs.Json.Null
  in
  let eval_line =
    List.find (fun d -> field "trace_id" d = Obs.Json.Str "att-2") completes
  in
  (match field "latency_ms" eval_line with
  | Obs.Json.Num ms -> Alcotest.(check bool) "latency recorded" true (ms >= 0.)
  | _ -> Alcotest.fail "completion line lacks latency_ms");
  Alcotest.(check bool) "client_traced flagged" true
    (field "client_traced" eval_line = Obs.Json.Bool true);
  (match field "cache" eval_line with
  | Obs.Json.Obj kvs ->
      Alcotest.(check bool) "evaluate line attributes cache counters" true
        (kvs <> []
        && List.for_all
             (fun (k, _) -> String.length k > 6 && String.sub k 0 6 = "cache.")
             kvs)
  | _ -> Alcotest.fail "evaluate completion lacks a cache breakdown");
  (* slow-ms 0: every request leaves an exemplar trace named by its id,
     and the log line points at it. *)
  List.iter
    (fun d ->
      match field "exemplar" d with
      | Obs.Json.Str path ->
          Alcotest.(check bool)
            (Printf.sprintf "exemplar %s exists" path)
            true (Sys.file_exists path);
          (match Obs.Json.parse_exn (String.concat "\n" (read_lines path)) with
          | Obs.Json.Arr (_ :: _) -> ()
          | _ -> Alcotest.fail "exemplar is not a chrome trace array")
      | _ -> Alcotest.fail "completion line lacks its exemplar path")
    completes;
  (* Session stats picked up the per-request cache deltas. *)
  (* The captured subtrees were detached: the server's global span list
     must not grow per request. *)
  Alcotest.(check int) "no span roots leak per request" 0
    (List.length (Obs.finished_spans ()))

(* The Prometheus rendering of a live service: served over the protocol,
   self-consistent, and with the counter families stable (golden). *)
let test_service_metrics_prom =
  with_obs_off @@ fun () ->
  Obs.enable ();
  Obs.reset ();
  let registry = Registry.create ~jobs:1 () in
  let service = Service.create registry in
  let spec =
    { Loadgen.scenario = P.Paper; clients = 2; ops = 6; limit = None; keep_open = false }
  in
  let o = Loadgen.run_inprocess ~verify:false service spec in
  Alcotest.(check int) "loadgen clean" 0 o.Loadgen.errors;
  Alcotest.(check int) "every reply echoed its trace id" 0 o.Loadgen.echo_failures;
  (* Loadgen closes its sessions; keep one open so the scrape shows the
     per-session gauge labeling. *)
  (match
     Service.handle service
       { P.id = 98; session = None; request = P.Open_session P.Paper;
         trace_id = None }
   with
  | { P.result = Ok (P.Opened _); _ } -> ()
  | _ -> Alcotest.fail "expected Opened");
  let text =
    match
      Service.handle service
        { P.id = 99; session = None; request = P.Metrics_prom; trace_id = None }
    with
    | { P.result = Ok (P.Prom_text text); _ } -> text
    | _ -> Alcotest.fail "expected Prom_text"
  in
  (match Obs.Prom_export.validate text with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "scrape invalid: %s" msg);
  Alcotest.(check bool) "server gauges exported" true
    (contains ~needle:"clio_server_requests_total" text);
  Alcotest.(check bool) "per-session gauges labeled" true
    (contains ~needle:"{session=\"" text);
  Alcotest.(check bool) "request latency histogram exported" true
    (contains ~needle:"clio_span_server_request_ms_bucket" text);
  (* Golden: the counter families of a loadgen run are exactly the
     registered Obs.Names counters — catches silent renames/losses. *)
  let counter_families =
    String.split_on_char '\n' text
    |> List.filter_map (fun line ->
           if
             String.length line > 7
             && String.sub line 0 7 = "# TYPE "
             && String.length line > 8 + 7
             && String.sub line (String.length line - 8) 8 = " counter"
           then Some (String.sub line 7 (String.length line - 15))
           else None)
    |> List.sort compare
  in
  let golden_path =
    Filename.concat (Filename.dirname Sys.executable_name) "prom_counters.golden"
  in
  let golden =
    List.filter (fun l -> String.trim l <> "") (read_lines golden_path)
  in
  Alcotest.(check (list string))
    "counter families match the golden scrape" golden counter_families

(* One gauge list feeds both sinks: every key of a no-session [stats]
   reply is exactly one gauge sample of the scrape and back — server keys
   unlabeled, [sessions.<sid>.<m>] as [clio_session_<m>{session="<sid>"}]
   — and no family is declared twice. *)
let check_one_gauge_list kvs text =
  let expected_sample key =
    match String.split_on_char '.' key with
    | "sessions" :: sid :: metric ->
        Obs.Prom_export.sanitize_name (String.concat "." ("session" :: metric))
        ^ Printf.sprintf "{session=\"%s\"}" sid
    | _ -> Obs.Prom_export.sanitize_name key
  in
  let lines = String.split_on_char '\n' text in
  let types =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "#"; "TYPE"; name; kind ] -> Some (name, kind)
        | _ -> None)
      lines
  in
  let dups l =
    let sorted = List.sort compare l in
    List.filteri (fun i x -> i > 0 && List.nth sorted (i - 1) = x) sorted
  in
  Alcotest.(check (list string)) "no # TYPE family declared twice" []
    (dups (List.map fst types));
  let gauge_samples =
    List.filter_map
      (fun l ->
        match String.rindex_opt l ' ' with
        | Some sp when l.[0] <> '#' ->
            let sample = String.sub l 0 sp in
            let family =
              match String.index_opt sample '{' with
              | Some b -> String.sub sample 0 b
              | None -> sample
            in
            if List.assoc_opt family types = Some "gauge" then Some sample
            else None
        | _ -> None)
      lines
  in
  let expected = List.map (fun (k, _) -> expected_sample k) kvs in
  Alcotest.(check (list string)) "each stats key names one sample" []
    (dups expected);
  Alcotest.(check (list string)) "each gauge sample is one stats key" []
    (dups gauge_samples);
  Alcotest.(check (list string)) "stats keys = gauge samples"
    (List.sort compare expected)
    (List.sort compare gauge_samples)

(* The keys, in order, of a no-session [stats] reply after the loaded run
   below.  Clients read these names (`clio_serve top`, bench/e2e), so they
   and their order are part of the wire contract. *)
let pinned_stats_keys =
  [
    "server.sessions.open";
    "server.sessions.opened_total";
    "server.requests_total";
    "server.errors_total";
    "server.overloads_total";
    "server.uptime_s";
    "server.jobs";
    "server.value_pool.count";
    "server.value_pool.bytes";
    "server.cache.enabled";
    "server.cache.entries";
    "server.cache.bytes_resident";
    "sessions.s1.requests";
    "sessions.s1.errors";
    "sessions.s1.latency_us.mean";
    "sessions.s1.latency_us.p50";
    "sessions.s1.latency_us.p99";
    "sessions.s1.latency_us.max";
    "sessions.s1.db_version";
    "sessions.s1.entries";
    "sessions.s1.branches";
    "sessions.s1.ops.branch";
    "sessions.s1.ops.confirm";
    "sessions.s1.ops.evaluate";
    "sessions.s1.ops.offer";
    "sessions.s1.ops.rotate";
    "sessions.s1.cache.bytes_resident";
    "sessions.s1.cache.dg.hits";
    "sessions.s1.cache.dg.misses";
    "sessions.s1.cache.fj.hits";
    "sessions.s1.cache.fj.misses";
    "sessions.s2.requests";
    "sessions.s2.errors";
    "sessions.s2.latency_us.mean";
    "sessions.s2.latency_us.p50";
    "sessions.s2.latency_us.p99";
    "sessions.s2.latency_us.max";
    "sessions.s2.db_version";
    "sessions.s2.entries";
    "sessions.s2.branches";
    "sessions.s2.ops.branch";
    "sessions.s2.ops.confirm";
    "sessions.s2.ops.evaluate";
    "sessions.s2.ops.offer";
    "sessions.s2.ops.rotate";
    "sessions.s2.cache.dg.hits";
  ]

let test_service_one_gauge_list =
  with_obs_off @@ fun () ->
  Obs.enable ();
  Obs.reset ();
  let registry = Registry.create ~jobs:1 () in
  let service = Service.create registry in
  let spec =
    { Loadgen.scenario = P.Paper; clients = 2; ops = 6; limit = None; keep_open = true }
  in
  let o = Loadgen.run_inprocess ~verify:false service spec in
  Alcotest.(check int) "loadgen clean" 0 o.Loadgen.errors;
  let call ?session id request =
    (Service.handle service { P.id; session; request; trace_id = None }).P.result
  in
  let kvs =
    match call 99 P.Stats with
    | Ok (P.Stats_report kvs) -> kvs
    | _ -> Alcotest.fail "expected Stats_report"
  in
  let text =
    match call 100 P.Metrics_prom with
    | Ok (P.Prom_text text) -> text
    | _ -> Alcotest.fail "expected Prom_text"
  in
  Alcotest.(check (list string)) "stats keys and order as pinned"
    pinned_stats_keys (List.map fst kvs);
  check_one_gauge_list kvs text;
  (* A session's own stats reply names the same values [session.<m>]. *)
  match call ~session:"s1" 101 P.Stats with
  | Ok (P.Stats_report own) ->
      Alcotest.(check (list string)) "session stats = its sessions.s1.* keys"
        (List.filter_map
           (fun (k, _) ->
             if String.starts_with ~prefix:"sessions.s1." k then
               Some ("session." ^ String.sub k 12 (String.length k - 12))
             else None)
           kvs)
        (List.map fst own)
  | _ -> Alcotest.fail "expected Stats_report"

(* --- socket integration against a spawned clio_serve --- *)

(* Relative to the test binary, not the cwd, so both [dune runtest] and a
   by-hand [dune exec test/test_server.exe] find it. *)
let serve_exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "clio_serve.exe"))

type client = { fd : Unix.file_descr; mutable carry : string }

let connect_retry path =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { fd; carry = "" }
    | exception Unix.Unix_error _ when Unix.gettimeofday () < deadline ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        ignore (Unix.select [] [] [] 0.05);
        go ()
  in
  go ()

let send_raw c s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let written = ref 0 in
  while !written < len do
    written := !written + Unix.write c.fd b !written (len - !written)
  done

let recv_line c =
  let rec go () =
    match String.index_opt c.carry '\n' with
    | Some i ->
        let line = String.sub c.carry 0 i in
        c.carry <- String.sub c.carry (i + 1) (String.length c.carry - i - 1);
        line
    | None ->
        let chunk = Bytes.create 65536 in
        let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
        if n = 0 then failwith "server closed connection";
        c.carry <- c.carry ^ Bytes.sub_string chunk 0 n;
        go ()
  in
  go ()

let rpc c env =
  send_raw c (P.encode_request env ^ "\n");
  match P.parse_response (recv_line c) with
  | Ok r -> r
  | Error msg -> failwith ("bad reply: " ^ msg)

let with_server ?(jobs = 1) ~args f =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "clio-test-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process serve_exe
      (Array.of_list
         ([ "clio_serve"; "serve"; "--socket"; path; "--jobs";
            string_of_int jobs ]
         @ args))
      null null Unix.stderr
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.close null;
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> f path pid)

let test_socket_session () =
  with_server ~args:[] @@ fun path _pid ->
  let c = connect_retry path in
  (match rpc c { P.id = 1; session = None; request = P.Ping; trace_id = None } with
  | { P.result = Ok P.Pong; id = Some 1; _ } -> ()
  | _ -> Alcotest.fail "expected pong");
  let sid =
    match rpc c { P.id = 2; session = None; request = P.Open_session P.Paper; trace_id = None } with
    | { P.result = Ok (P.Opened { session; _ }); _ } -> session
    | _ -> Alcotest.fail "expected Opened"
  in
  let digest =
    match
      rpc c
        {
          P.id = 3;
          session = Some sid;
          request = P.Evaluate { what = P.Dg; limit = None };
          trace_id = None;
        }
    with
    | { P.result = Ok (P.Evaluated info); _ } -> info.P.digest
    | _ -> Alcotest.fail "expected Evaluated"
  in
  Alcotest.(check int) "md5 hex digest" 32 (String.length digest);
  (* A malformed frame draws an error reply and the connection survives. *)
  send_raw c "{oops\n";
  (match P.parse_response (recv_line c) with
  | Ok { P.result = Error (P.Parse_error, _); _ } -> ()
  | _ -> Alcotest.fail "expected parse_error reply");
  (match rpc c { P.id = 4; session = Some sid; request = P.Confirm; trace_id = None } with
  | { P.result = Ok (P.Entries _); _ } -> ()
  | _ -> Alcotest.fail "connection should survive the bad frame");
  (match rpc c { P.id = 5; session = Some sid; request = P.Stats; trace_id = None } with
  | { P.result = Ok (P.Stats_report kvs); _ } ->
      Alcotest.(check bool) "session.requests visible" true
        (List.mem_assoc "session.requests" kvs)
  | _ -> Alcotest.fail "expected Stats_report");
  (match rpc c { P.id = 6; session = None; request = P.Stats; trace_id = None } with
  | { P.result = Ok (P.Stats_report kvs); _ } -> (
      Alcotest.(check bool) "queue gauges visible" true
        (List.mem_assoc "server.queue.capacity" kvs);
      (* The transport's gauges join the registry's in both sinks. *)
      match
        rpc c { P.id = 8; session = None; request = P.Metrics_prom; trace_id = None }
      with
      | { P.result = Ok (P.Prom_text text); _ } -> check_one_gauge_list kvs text
      | _ -> Alcotest.fail "expected Prom_text")
  | _ -> Alcotest.fail "expected server stats");
  (match rpc c { P.id = 7; session = Some sid; request = P.Close_session; trace_id = None } with
  | { P.result = Ok P.Closed; _ } -> ()
  | _ -> Alcotest.fail "expected Closed");
  Unix.close c.fd

let test_socket_overload_backpressure () =
  with_server ~args:[ "--queue"; "2" ] @@ fun path _pid ->
  let c = connect_retry path in
  (* One write carrying many pings: the loop admits up to the queue bound
     per pass and answers the rest with overloaded — the connection must
     survive and every request must get a correlated reply. *)
  let burst = 64 in
  let frames = Buffer.create 1024 in
  for i = 1 to burst do
    Buffer.add_string frames
      (P.encode_request { P.id = i; session = None; request = P.Ping; trace_id = None } ^ "\n")
  done;
  send_raw c (Buffer.contents frames);
  let pongs = ref 0 and overloads = ref 0 in
  for _ = 1 to burst do
    match P.parse_response (recv_line c) with
    | Ok { P.result = Ok P.Pong; _ } -> incr pongs
    | Ok { P.result = Error (P.Overloaded, _); id = Some _; _ } -> incr overloads
    | Ok r -> Alcotest.failf "unexpected reply %s" (P.encode_response r)
    | Error msg -> Alcotest.failf "bad reply: %s" msg
  done;
  Alcotest.(check int) "every frame answered" burst (!pongs + !overloads);
  Alcotest.(check bool) "backpressure engaged" true (!overloads > 0);
  Alcotest.(check bool) "some requests still served" true (!pongs > 0);
  (* And the connection is still usable afterwards. *)
  (match rpc c { P.id = 9999; session = None; request = P.Ping; trace_id = None } with
  | { P.result = Ok P.Pong; _ } -> ()
  | _ -> Alcotest.fail "connection should survive overload");
  Unix.close c.fd

let test_socket_shutdown_drains () =
  with_server ~args:[] @@ fun path pid ->
  let c = connect_retry path in
  (match rpc c { P.id = 1; session = None; request = P.Shutdown; trace_id = None } with
  | { P.result = Ok P.Bye; _ } -> ()
  | _ -> Alcotest.fail "expected Bye");
  Unix.close c.fd;
  let _, status = Unix.waitpid [] pid in
  match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "server exited %d" n
  | _ -> Alcotest.fail "server did not exit cleanly"

let test_socket_loadgen () =
  with_server ~args:[] @@ fun path _pid ->
  ignore (connect_retry path).fd;
  let spec =
    { Loadgen.scenario = P.Paper; clients = 4; ops = 12; limit = None; keep_open = false }
  in
  let o = Loadgen.run_socket ~verify:true ~address:(Loop.Unix_path path) spec in
  Alcotest.(check int) "no protocol errors" 0 o.Loadgen.errors;
  Alcotest.(check (option int)) "byte-identical vs sequential replay" (Some 0)
    o.Loadgen.mismatches

(* Scripts of any length stay valid: every round walks from the root
   mapping on its own branch, so a long run neither errors nor drifts
   from the replay. *)
let test_socket_loadgen_long_chain () =
  with_server ~args:[] @@ fun path _pid ->
  ignore (connect_retry path).fd;
  let spec =
    {
      Loadgen.scenario = P.Chain { n = 3; rows = 60; seed = 3 };
      clients = 2;
      ops = 60;
      limit = None;
      keep_open = false;
    }
  in
  let o = Loadgen.run_socket ~verify:true ~address:(Loop.Unix_path path) spec in
  Alcotest.(check int) "no protocol errors" 0 o.Loadgen.errors;
  Alcotest.(check (option int)) "byte-identical vs sequential replay" (Some 0)
    o.Loadgen.mismatches

(* Under --slow-ms 0 every request leaves an exemplar; an evaluate's must
   show the reply path's own spans, not just the cache lookup. *)
let test_socket_evaluate_exemplar_spans () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "clio-eval-exemplars-%d" (Unix.getpid ()))
  in
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ()
    end
  in
  cleanup ();
  Fun.protect ~finally:cleanup @@ fun () ->
  with_server ~args:[ "--slow-ms"; "0"; "--exemplars"; dir ] @@ fun path _pid ->
  let c = connect_retry path in
  let sid =
    match
      rpc c
        { P.id = 1; session = None;
          request = P.Open_session (P.Chain { n = 3; rows = 40; seed = 5 });
          trace_id = None }
    with
    | { P.result = Ok (P.Opened { session; _ }); _ } -> session
    | _ -> Alcotest.fail "expected Opened"
  in
  (match
     rpc c
       { P.id = 2; session = Some sid;
         request = P.Evaluate { what = P.Dg; limit = None };
         trace_id = Some "eval-dg" }
   with
  | { P.result = Ok (P.Evaluated _); _ } -> ()
  | _ -> Alcotest.fail "expected Evaluated");
  Unix.close c.fd;
  let names =
    match
      Obs.Json.parse_exn
        (String.concat "\n" (read_lines (Filename.concat dir "trace-eval-dg.json")))
    with
    | Obs.Json.Arr events ->
        List.filter_map
          (fun e ->
            match Obs.Json.member "name" e with
            | Some (Obs.Json.Str n) -> Some n
            | _ -> None)
          events
    | _ -> Alcotest.fail "exemplar is not a chrome trace array"
  in
  List.iter
    (fun span ->
      Alcotest.(check bool) (span ^ " in the exemplar") true (List.mem span names))
    [ Obs.Names.sp_render_digest ]

let test_socket_sigterm_flushes_telemetry () =
  let tmp = Filename.get_temp_dir_name () in
  let stamp = Printf.sprintf "clio-term-%d" (Unix.getpid ()) in
  let log_path = Filename.concat tmp (stamp ^ ".log") in
  let metrics_path = Filename.concat tmp (stamp ^ ".metrics.json") in
  let dir = Filename.concat tmp (stamp ^ "-exemplars") in
  let cleanup () =
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ log_path; log_path ^ ".1"; metrics_path ];
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ()
    end
  in
  cleanup ();
  Fun.protect ~finally:cleanup @@ fun () ->
  with_server
    ~args:
      [
        "--log"; log_path; "--slow-ms"; "0"; "--exemplars"; dir; "--metrics";
        metrics_path;
      ]
  @@ fun path pid ->
  let c = connect_retry path in
  let sid =
    match
      rpc c
        { P.id = 1; session = None; request = P.Open_session P.Paper;
          trace_id = Some "term-1" }
    with
    | { P.result = Ok (P.Opened { session; _ }); trace_id = Some "term-1"; _ }
      ->
        session
    | _ -> Alcotest.fail "expected traced Opened"
  in
  (match
     rpc c
       { P.id = 2; session = Some sid;
         request = P.Evaluate { what = P.Dg; limit = None };
         trace_id = Some "term-2" }
   with
  | { P.result = Ok (P.Evaluated _); trace_id = Some "term-2"; _ } -> ()
  | _ -> Alcotest.fail "expected traced Evaluated");
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  (match status with
  | Unix.WEXITED 143 -> ()
  | Unix.WEXITED n -> Alcotest.failf "expected exit 143, got %d" n
  | _ -> Alcotest.fail "server did not exit on SIGTERM");
  Unix.close c.fd;
  (* Telemetry survived the signal: the log ends with the shutdown record,
     every completion has its exemplar on disk, and the metrics file is a
     complete document. *)
  let docs = List.map Obs.Json.parse_exn (read_lines log_path) in
  let events =
    List.filter_map
      (fun d ->
        match Obs.Json.member "event" d with
        | Some (Obs.Json.Str e) -> Some (e, d)
        | _ -> None)
      docs
  in
  Alcotest.(check bool) "drain logged as sigterm" true
    (List.exists
       (fun (e, d) ->
         e = "server.drain"
         && Obs.Json.member "reason" d = Some (Obs.Json.Str "sigterm"))
       events);
  Alcotest.(check bool) "shutdown logged with exit 143" true
    (List.exists
       (fun (e, d) ->
         e = "server.shutdown"
         && Obs.Json.member "exit" d = Some (Obs.Json.Num 143.))
       events);
  let completes = List.filter (fun (e, _) -> e = "request.complete") events in
  Alcotest.(check int) "both requests completed in the log" 2
    (List.length completes);
  List.iter
    (fun (_, d) ->
      match Obs.Json.member "exemplar" d with
      | Some (Obs.Json.Str p) ->
          Alcotest.(check bool) (p ^ " exists") true (Sys.file_exists p)
      | _ -> Alcotest.fail "completion line lacks its exemplar")
    completes;
  match Obs.Json.parse (String.concat "\n" (read_lines metrics_path)) with
  | Ok doc ->
      Alcotest.(check bool) "metrics file is a schema-1 document" true
        (Obs.Json.member "schema_version" doc = Some (Obs.Json.Num 1.)
        && Obs.Json.member "spans" doc <> None)
  | Error msg -> Alcotest.failf "metrics file incomplete after SIGTERM: %s" msg

(* Queue fairness: a connection flooding far past the queue bound must
   absorb the overload replies itself; a polite client sending one request
   at a time through the same storm must never see [overloaded] — the
   round-robin admission ring gives its one-deep inbox a turn every
   pass. *)
let test_socket_flood_fairness () =
  with_server ~args:[ "--queue"; "2" ] @@ fun path _pid ->
  let flooder = connect_retry path in
  let victim = connect_retry path in
  let burst = 64 in
  let frames = Buffer.create 1024 in
  for i = 1 to burst do
    Buffer.add_string frames
      (P.encode_request
         { P.id = i; session = None; request = P.Ping; trace_id = None }
      ^ "\n")
  done;
  send_raw flooder (Buffer.contents frames);
  (* While the flood drains, the victim converses normally. *)
  for i = 1 to 16 do
    match
      rpc victim
        { P.id = 1000 + i; session = None; request = P.Ping; trace_id = None }
    with
    | { P.result = Ok P.Pong; _ } -> ()
    | { P.result = Error (P.Overloaded, _); _ } ->
        Alcotest.fail "victim of another connection's flood got overloaded"
    | r -> Alcotest.failf "unexpected victim reply %s" (P.encode_response r)
  done;
  let pongs = ref 0 and overloads = ref 0 in
  for _ = 1 to burst do
    match P.parse_response (recv_line flooder) with
    | Ok { P.result = Ok P.Pong; _ } -> incr pongs
    | Ok { P.result = Error (P.Overloaded, _); _ } -> incr overloads
    | Ok r -> Alcotest.failf "unexpected reply %s" (P.encode_response r)
    | Error msg -> Alcotest.failf "bad reply: %s" msg
  done;
  Alcotest.(check int) "every flooded frame answered" burst
    (!pongs + !overloads);
  Alcotest.(check bool) "overload landed on the flooder" true (!overloads > 0);
  Unix.close flooder.fd;
  Unix.close victim.fd

(* Concurrency parity: the same multi-session load must produce evaluation
   digests byte-identical to the single-threaded sequential replay at
   every (workers, jobs) combination.  The interleaving across sessions is
   whatever the worker scheduling happens to produce — randomized by
   nature, re-rolled every run — while each client's own stream stays
   ordered; the digests (and the zero trace-echo-failure count) prove
   execution is deterministic per session regardless. *)
let test_socket_concurrency_parity () =
  List.iteri
    (fun i (workers, jobs) ->
      with_server ~jobs ~args:[ "--workers"; string_of_int workers ]
      @@ fun path _pid ->
      let probe = connect_retry path in
      Unix.close probe.fd;
      let spec =
        {
          Loadgen.scenario = P.Chain { n = 3; rows = 60; seed = 7 + i };
          clients = 4;
          ops = 12;
          limit = None;
          keep_open = false;
        }
      in
      let o = Loadgen.run_socket ~verify:true ~address:(Loop.Unix_path path) spec in
      let label fmt =
        Printf.sprintf "workers=%d jobs=%d: %s" workers jobs fmt
      in
      Alcotest.(check int) (label "no protocol errors") 0 o.Loadgen.errors;
      Alcotest.(check int) (label "trace ids echoed") 0 o.Loadgen.echo_failures;
      Alcotest.(check (option int))
        (label "digests byte-identical to sequential replay")
        (Some 0) o.Loadgen.mismatches)
    [ (1, 1); (1, 4); (4, 1); (4, 4) ]

(* Reply sequencing: frames pipelined on one connection — across two
   sessions pinned to different shards, plus sessionless pings — must be
   answered in exactly the order they were submitted, even when a
   4-worker server finishes them out of order. *)
let test_socket_pipelined_reply_order () =
  with_server ~args:[ "--workers"; "4" ] @@ fun path _pid ->
  let c = connect_retry path in
  let open_session id =
    match
      rpc c
        { P.id; session = None; request = P.Open_session P.Paper;
          trace_id = None }
    with
    | { P.result = Ok (P.Opened { session; _ }); _ } -> session
    | _ -> Alcotest.fail "expected Opened"
  in
  let sa = open_session 1 and sb = open_session 2 in
  let ids = List.init 12 (fun i -> 10 + i) in
  let frames = Buffer.create 1024 in
  List.iter
    (fun id ->
      let session, request =
        match id mod 3 with
        | 0 -> (None, P.Ping)
        | 1 -> (Some sa, P.Evaluate { what = P.Dg; limit = None })
        | _ -> (Some sb, P.Evaluate { what = P.Target; limit = None })
      in
      Buffer.add_string frames
        (P.encode_request { P.id; session; request; trace_id = None } ^ "\n"))
    ids;
  send_raw c (Buffer.contents frames);
  let got =
    List.map
      (fun _ ->
        match P.parse_response (recv_line c) with
        | Ok { P.id = Some id; P.result = Ok _; _ } -> id
        | Ok r -> Alcotest.failf "error reply %s" (P.encode_response r)
        | Error msg -> Alcotest.failf "bad reply: %s" msg)
      ids
  in
  Alcotest.(check (list int)) "replies in submission order" ids got;
  Unix.close c.fd

(* Drain under load: a burst of work immediately followed by [shutdown]
   must leave no request unanswered — everything parsed before the drain
   gets exactly one reply (executed or [unavailable], depending on when
   the shutdown verb lands on its shard) and the server exits 0. *)
let test_socket_drain_under_load () =
  with_server ~args:[ "--workers"; "4" ] @@ fun path pid ->
  let c = connect_retry path in
  let sid =
    match
      rpc c
        { P.id = 1; session = None; request = P.Open_session P.Paper;
          trace_id = None }
    with
    | { P.result = Ok (P.Opened { session; _ }); _ } -> session
    | _ -> Alcotest.fail "expected Opened"
  in
  let n = 16 in
  let frames = Buffer.create 1024 in
  for i = 1 to n do
    Buffer.add_string frames
      (P.encode_request
         { P.id = 10 + i; session = Some sid;
           request = P.Evaluate { what = P.Dg; limit = None };
           trace_id = None }
      ^ "\n")
  done;
  Buffer.add_string frames
    (P.encode_request
       { P.id = 100; session = None; request = P.Shutdown; trace_id = None }
    ^ "\n");
  send_raw c (Buffer.contents frames);
  let expected = List.init n (fun i -> 10 + 1 + i) @ [ 100 ] in
  List.iter
    (fun want ->
      match P.parse_response (recv_line c) with
      | Ok { P.id = Some id; P.result; _ } -> (
          Alcotest.(check int) "reply order under drain" want id;
          match (want, result) with
          | 100, Ok P.Bye -> ()
          | 100, _ -> Alcotest.fail "expected Bye to shutdown"
          | _, Ok (P.Evaluated _) | _, Error (P.Unavailable, _) -> ()
          | _, r ->
              Alcotest.failf "unexpected drain reply %s"
                (P.encode_response { P.id = Some id; result = r; trace_id = None }))
      | Ok r -> Alcotest.failf "reply without id %s" (P.encode_response r)
      | Error msg -> Alcotest.failf "bad reply: %s" msg)
    expected;
  Unix.close c.fd;
  let _, status = Unix.waitpid [] pid in
  match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED code -> Alcotest.failf "server exited %d" code
  | _ -> Alcotest.fail "server did not exit cleanly"

(* Numeric flags below 1 are usage errors (exit 124): the server must
   refuse to boot instead of dying on an internal exception or serving
   with a zero-sized pool, queue or cache.  A server that boots anyway is
   killed after a deadline and reported. *)
let test_serve_rejects_nonpositive_flags () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "clio-test-flags-%d.sock" (Unix.getpid ()))
  in
  let exit_of flag v =
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let pid =
      Unix.create_process serve_exe
        [| "clio_serve"; "serve"; "--socket"; path; flag; v |]
        null null null
    in
    Unix.close null;
    let deadline = Unix.gettimeofday () +. 10. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
          ignore (Unix.select [] [] [] 0.02);
          wait ()
      | 0, _ ->
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          Alcotest.failf "serve %s %s booted" flag v
      | _, status -> status
    in
    wait ()
  in
  Fun.protect
    ~finally:(fun () -> try Unix.unlink path with Unix.Unix_error _ -> ())
  @@ fun () ->
  List.iter
    (fun (flag, v) ->
      match exit_of flag v with
      | Unix.WEXITED 124 -> ()
      | Unix.WEXITED code ->
          Alcotest.failf "serve %s %s exited %d, expected 124" flag v code
      | _ -> Alcotest.failf "serve %s %s died on a signal" flag v)
    [
      ("--jobs", "0");
      ("--workers", "0");
      ("--queue", "0");
      ("--cache-mb", "0");
      ("--jobs", "-3");
    ]

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "server"
    [
      ( "protocol",
        [
          tc "every request round-trips" `Quick test_request_roundtrip;
          tc "every request frame matches its pinned bytes" `Quick
            test_request_frames_pinned;
          tc "every response round-trips" `Quick test_response_roundtrip;
          tc "malformed requests are rejected with ids recovered" `Quick
            test_parse_request_rejects;
          tc "trace id is optional and wire-compatible" `Quick
            test_trace_id_wire_compat;
          QCheck_alcotest.to_alcotest ~long:false prop_op_codec;
        ] );
      ( "service",
        [
          tc "session flow" `Quick test_service_session_flow;
          tc "isolation with a shared substrate" `Quick
            test_service_isolation_and_sharing;
          tc "branch, checkout, merge, diff over the protocol" `Quick
            test_service_branching_flow;
          tc "persist and restore across a cold registry" `Quick
            test_registry_persist_restore;
          tc "draining" `Quick test_service_draining;
          tc "loadgen in process, verified" `Quick
            test_loadgen_inprocess_verified;
          tc "evaluate fj leaves the cached F(J) columnar" `Quick
            test_evaluate_fj_stays_columnar;
        ] );
      ( "telemetry",
        [
          tc "trace ids echo only when sent" `Quick test_service_trace_echo;
          tc "event log + exemplars attribute each request" `Quick
            test_service_telemetry_attribution;
          tc "prometheus scrape over the protocol (golden families)" `Quick
            test_service_metrics_prom;
          tc "one gauge list feeds stats and the scrape" `Quick
            test_service_one_gauge_list;
        ] );
      ( "socket",
        [
          tc "session over a unix socket" `Quick test_socket_session;
          tc "overload backpressure" `Quick test_socket_overload_backpressure;
          tc "shutdown request drains" `Quick test_socket_shutdown_drains;
          tc "socket loadgen verified" `Quick test_socket_loadgen;
          tc "SIGTERM exits 143 with telemetry flushed" `Quick
            test_socket_sigterm_flushes_telemetry;
          tc "chain loadgen with 60 ops stays valid" `Quick
            test_socket_loadgen_long_chain;
          tc "evaluate exemplar shows the digest span" `Quick
            test_socket_evaluate_exemplar_spans;
          tc "numeric flags below 1 exit 124" `Quick
            test_serve_rejects_nonpositive_flags;
        ] );
      ( "concurrency",
        [
          tc "flood overloads the flooder, not its neighbour" `Quick
            test_socket_flood_fairness;
          tc "digest parity across workers x jobs" `Quick
            test_socket_concurrency_parity;
          tc "pipelined replies keep submission order (workers=4)" `Quick
            test_socket_pipelined_reply_order;
          tc "drain under load answers everything, exits 0" `Quick
            test_socket_drain_under_load;
        ] );
    ]
