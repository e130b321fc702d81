type experiment = {
  name : string;
  doc : string;
  run : Common.scale -> Rofl_util.Table.t list;
}

let all =
  List.map
    (fun (name, doc, run) -> { name; doc; run })
    [
      ("fig5a", "intradomain cumulative join overhead vs IDs", Fig5.fig5a);
      ("fig5b", "intradomain CDF of per-host join overhead", Fig5.fig5b);
      ("fig5c", "intradomain CDF of join latency", Fig5.fig5c);
      ("fig6a", "intradomain stretch vs pointer-cache size", Fig6.fig6a);
      ("fig6b", "intradomain load balance vs OSPF", Fig6.fig6b);
      ("fig6c", "intradomain router memory vs IDs", Fig6.fig6c);
      ("fig7", "PoP partition repair overhead", Fig7.fig7);
      ("fig8a", "interdomain join overhead by strategy", Fig8.fig8a);
      ("fig8b", "interdomain stretch CDF vs fingers", Fig8.fig8b);
      ("fig8c", "interdomain stretch vs per-AS cache", Fig8.fig8c);
      ("churn", "steady-state SLOs under continuous churn", Churnlab.churn);
      ( "alpha-frontier",
        "lookup latency vs control traffic across alpha x tuning",
        Churnlab.alpha_frontier );
      ( "services",
        "service-discovery SLOs under flash crowds and republish storms",
        Serviceslab.services );
      ("megachurn", "million-host audited campaign on compact state", Churnlab.megachurn);
      ( "attack",
        "eclipse/poison/forge attack grid vs diversity and verification defenses",
        Attacklab.attack );
      ("summary", "paper §6.4 summary vs measured", Summary.summary);
      ("ablations", "all design-choice ablations", Ablations.all);
      ("compare-compact", "compact routing vs ROFL", Compare.compact_vs_rofl);
      ("msg-sizes", "control-message wire sizes", Compare.message_sizes);
    ]

let find name = List.find_opt (fun e -> e.name = name) all
