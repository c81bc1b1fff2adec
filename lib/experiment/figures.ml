(* Every figure is data: one Scenario value each, executed by Runner
   and reachable as `manet run <name>`.  Experiments with a second axis
   beyond n (loss, speed) spread it over the columns, one series per
   value, labelled "<series>@<value>". *)

let fwd ?name ?loss protocol = Scenario.Forwards { protocol; name; loss }

let deliver ?name ?loss protocol = Scenario.Delivery { protocol; name; loss }

let size ?name ?clustering protocol = Scenario.Structure_size { protocol; name; clustering }

let ratio ?name protocol = Scenario.Mcds_ratio { protocol; name }

let cost field = Scenario.Construction_cost { field; name = None }

let fail_deliver ?name protocol = Scenario.Failure_delivery { protocol; name; loss = None }

let reconnect ?name protocol = Scenario.Reconnection_rounds { protocol; name }

let redund ?name protocol = Scenario.Redundancy { protocol; name }

let reliable field loss = Scenario.Reliable_broadcast { field; loss }

let motion field speed = Scenario.Motion { field; speed }

let paper_degrees = [ 6.; 18. ]

let speeds = [ 1.; 2.; 5.; 10. ]

let builtins =
  List.map
    (fun (s : Scenario.t) -> (s.name, s))
    [
      Scenario.make ~name:"fig6" ~degrees:paper_degrees
        ~description:
          "Figure 6: average CDS size - static backbone (2.5-hop, 3-hop) vs MO_CDS. Expected: \
           the three curves nearly coincide, static slightly below MO_CDS, 2.5-hop within 2% of \
           3-hop."
        [ size "static-2.5hop"; size "static-3hop"; size "mo_cds" ];
      Scenario.make ~name:"fig7" ~degrees:paper_degrees
        ~description:
          "Figure 7: average forward-node-set size per broadcast - dynamic backbone (2.5-hop, \
           3-hop) vs MO_CDS. Expected: dynamic well below MO_CDS."
        [ fwd "dynamic-2.5hop"; fwd "dynamic-3hop"; fwd "mo_cds" ];
      Scenario.make ~name:"fig8" ~degrees:paper_degrees
        ~description:
          "Figure 8: forward-node-set size - static vs dynamic backbone (both coverage modes). \
           Expected: dynamic below static, both modes nearly equal."
        [ fwd "static-2.5hop"; fwd "static-3hop"; fwd "dynamic-2.5hop"; fwd "dynamic-3hop" ];
      Scenario.make ~name:"ext-baselines" ~degrees:paper_degrees
        ~description:
          "Extension: forward counts of flooding, Wu-Li, DP, PDP, AHBP, MPR, the forwarding \
           tree, backoff self-pruning, counter-based and passive clustering alongside the \
           paper's backbones (plus the delivery ratios of the probabilistic schemes, which the \
           paper singles out as poor)."
        [
          fwd "flooding";
          fwd "wu-li";
          fwd "dp";
          fwd "pdp";
          fwd "ahbp";
          fwd "mpr";
          fwd "fwd-tree";
          fwd "self-pruning";
          fwd "counter";
          deliver ~name:"counter-delivery" "counter";
          fwd "passive";
          deliver ~name:"passive-delivery" "passive";
          fwd "static-2.5hop";
          fwd "dynamic-2.5hop";
        ];
      Scenario.make ~name:"ext-si-cds" ~degrees:paper_degrees
        ~description:
          "Extension: CDS sizes across the source-independent algorithms - the paper's static \
           backbone, MO_CDS, Wu-Li, spanning-tree CDS and greedy CDS - with the cluster count \
           as the common floor."
        [
          size "static-2.5hop";
          size "mo_cds";
          size "wu-li";
          size "tree-cds";
          size "greedy-cds";
          Scenario.Cluster_count { clustering = Scenario.Lowest_id };
        ];
      Scenario.make ~name:"ext-clustering" ~degrees:paper_degrees
        ~description:
          "Ablation: backbone size and cluster counts under lowest-ID vs highest-connectivity \
           clustering."
        [
          size "static-2.5hop";
          size ~name:"static-2.5hop/deg" ~clustering:Scenario.Highest_degree "static-2.5hop";
          Scenario.Cluster_count { clustering = Scenario.Lowest_id };
          Scenario.Cluster_count { clustering = Scenario.Highest_degree };
        ];
      Scenario.make ~name:"ext-msgs" ~degrees:paper_degrees
        ~description:
          "Message complexity: transmissions of each distributed construction stage, and the \
           total divided by n (flat when the total is O(n))."
        [
          cost Scenario.Hello;
          cost Scenario.Clustering_msgs;
          cost Scenario.Ch_hop;
          cost Scenario.Gateway;
          cost Scenario.Total;
          cost Scenario.Total_per_hello;
        ];
      Scenario.make ~name:"ext-delivery" ~degrees:paper_degrees
        ~description:
          "Diagnostic: delivery ratios of the dynamic backbone and the SD baselines (expected \
           at or near 1.0)."
        [
          deliver ~name:"delivery-2.5hop" "dynamic-2.5hop";
          deliver ~name:"delivery-3hop" "dynamic-3hop";
          deliver "dp";
          deliver "pdp";
          deliver "mpr";
        ];
      Scenario.make ~name:"ext-pruning" ~degrees:paper_degrees
        ~description:
          "Ablation: dynamic backbone under the three pruning levels, against the static \
           backbone as the no-history reference (2.5-hop mode)."
        [
          fwd "static-2.5hop";
          fwd "dynamic-2.5hop/sender";
          fwd "dynamic-2.5hop/coverage";
          fwd "dynamic-2.5hop";
        ];
      Scenario.make ~name:"ext-resilience" ~degrees:paper_degrees
        ~failures:{ Metric.kill = 1; round = 1; heal = None; backbone_only = true }
        ~description:
          "Resilience: one random backbone node dies at round 1 - post-failure delivery of the \
           paper's static backbone vs the k-connected m-dominating family (k=2 should hold \
           1.0), rounds the broadcast keeps propagating past the kill, and the \
           redundant-coverage factor of each structure."
        [
          fail_deliver "static-2.5hop";
          fail_deliver "kmcds-k1m2";
          fail_deliver "kmcds-k2m2";
          fail_deliver "kmcds-k2m2/stable";
          reconnect "kmcds-k2m2";
          redund "static-2.5hop";
          redund "kmcds-k2m2";
        ];
      Scenario.make ~name:"ext-traffic" ~ns:[ 80 ] ~degrees:[ 6. ]
        ~workload:
          (Workload.make ~warmup:10. ~join_rate:0.4 ~leave_rate:0.4 ~maintenance_every:1.
             ~arrival_rate:50. ~duration:250. ())
        ~stopping:{ Scenario.min_samples = 2; max_samples = 2; rel_precision = 0.5 }
        ~description:
          "Continuous traffic: a Poisson broadcast stream (~12,000 arrivals) served over one \
           long-lived network under join/leave churn, with the backbone maintained \
           incrementally every time unit - sustained throughput, maintenance messages per \
           churn event, backbone staleness and delivery over active nodes."
        [
          Scenario.Workload_throughput { name = None };
          Scenario.Workload_maintenance { name = None };
          Scenario.Workload_staleness { name = None };
          Scenario.Workload_delivery { name = None };
        ];
      Scenario.make ~name:"ext-lossy" ~ns:[ 100 ] ~degrees:[ 8. ]
        ~description:
          "Lossy links: delivery ratio of blind flooding, the static backbone, MO_CDS and the \
           dynamic backbone as per-reception loss grows (one column per protocol@loss). \
           Expected: all 1.0 at loss 0; flooding degrades least and the sparse dynamic \
           forward set most - redundancy buys robustness."
        (List.concat_map
           (fun loss ->
             List.map
               (fun p -> deliver ~name:(Scenario.label_at p loss) ~loss p)
               [ "flooding"; "static-2.5hop"; "mo_cds"; "dynamic-2.5hop" ])
           [ 0.; 0.05; 0.1; 0.2; 0.3; 0.4 ]);
      Scenario.make ~name:"ext-border" ~ns:[ 20; 60; 100 ] ~degrees:[ 6. ]
        ~description:
          "Border effects: the same placements under the confined and the toroidal \
           (wrap-around) metric - realized degree and static backbone size. Expected: the \
           confined space realizes less than the target degree, the torus about the target."
        [
          Scenario.Realized_degree;
          Scenario.Toroidal { field = Metric.Torus_degree };
          size ~name:"backbone" "static-2.5hop";
          Scenario.Toroidal { field = Metric.Torus_backbone };
        ];
      Scenario.make ~name:"ext-reliable" ~ns:[ 100 ] ~degrees:[ 8. ]
        ~description:
          "Reliable broadcast: data and ack transmissions of ack/retransmit over the \
           Pagani-Rossi forwarding tree, its completion rate, one unreliable flood's delivery \
           and an oracle that re-floods until every node is covered, per loss rate. \
           Expected: the tree always completes, its data grows with loss, one flood falls \
           short of 1.0."
        (List.concat_map
           (fun loss ->
             [
               reliable Metric.Tree_data loss;
               reliable Metric.Tree_acks loss;
               reliable Metric.Tree_complete loss;
               deliver ~name:(Scenario.label_at "flooding" loss) ~loss "flooding";
               reliable Metric.Oracle_flood loss;
             ])
           [ 0.; 0.1; 0.2; 0.3 ]);
      Scenario.make ~name:"ext-maintenance" ~ns:[ 100 ] ~degrees:[ 6. ]
        ~description:
          "Maintenance under random-waypoint motion (30 steps of dt 1 per sample): cluster \
           role-change messages, head churn and full static-backbone upkeep messages per step, \
           vs the gateways an on-demand dynamic broadcast selects, per speed. Expected: \
           upkeep grows with speed and stays below n role changes per step."
        (List.concat_map
           (fun speed ->
             List.map
               (fun f -> motion f speed)
               Metric.[ Cluster_msgs; Head_churn; Backbone_msgs; Gateways ])
           speeds);
      Scenario.make ~name:"ext-mobility" ~ns:[ 100 ] ~degrees:[ 6. ]
        ~description:
          "Mobility: how long a static backbone frozen at t=0 stays a CDS under \
           random-waypoint motion (dt 0.5 up to t=100), and delivery at t=5 over that stale \
           backbone vs an on-demand dynamic broadcast on the moved topology, per speed. \
           Expected: the frozen backbone breaks within a few time units; dynamic delivery \
           above stale delivery."
        (List.concat_map
           (fun speed ->
             List.map
               (fun f -> motion f speed)
               Metric.[ Valid_time; Stale_delivery; Dynamic_delivery ])
           speeds);
      Scenario.make ~name:"ext-approx" ~ns:[ 8; 10; 12; 14; 16 ] ~degrees:[ 6. ]
        ~description:
          "Approximation ratios |CDS| / |MCDS| on small networks (the exact solver is \
           exponential) for the static backbone (both modes), MO_CDS and greedy CDS."
        [
          Scenario.Mcds_size;
          ratio "static-2.5hop";
          ratio "static-3hop";
          ratio "mo_cds";
          ratio ~name:"greedy/mcds" "greedy-cds";
        ];
    ]

let builtin_exn name =
  match List.assoc_opt name builtins with
  | Some s -> s
  | None ->
    invalid_arg
      (Printf.sprintf "unknown builtin scenario %S; available: %s" name
         (String.concat ", " (List.map fst builtins)))
