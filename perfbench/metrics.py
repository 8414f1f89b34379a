"""Metric catalog: names, units, and what each per-layer metric should move.

``END_TO_END`` is what a user of ``anomform`` sees on each workload;
``PER_LAYER`` comes from the traced run.  Each per-layer entry names the
end-to-end metric and workload it should move (and where it should not),
written down before any change to the library is measured.
"""

# (name, unit); direction and regression bound live in BENCHMARK.json
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (name, unit, prediction); every per-layer metric is better lower except reuse
PER_LAYER = (
    ("qseries.mul.calls", "count",
     "wall_s on sweep-m4 (bundle assembly) and routes-m3; no change on numeric-laws"),
    ("qseries.mul.self_s", "s", "wall_s on sweep-m4 and routes-m3; zero on numeric-laws"),
    ("qseries.inverse.calls", "count", "wall_s on sweep-m4 and routes-m3"),
    ("qseries.inverse.self_s", "s", "wall_s on sweep-m4 and routes-m3"),
    ("chroot.graded_mul.calls", "count", "wall_s on sweep-m4"),
    ("chroot.graded_mul.self_s", "s",
     "wall_s on sweep-m4 (the kernel); no change on numeric-laws"),
    ("chroot.root_pair_product.calls", "count", "wall_s on routes-m3"),
    ("chroot.root_pair_product.self_s", "s",
     "wall_s on routes-m3 (q-series coefficients, not Fractions)"),
    ("chroot.power_sums.calls", "count", "wall_s on verify-all and routes-m3"),
    ("chroot.basis_monomials", "count",
     "computed from the profiles, not measured; fixed by the workload"),
    ("genera.a_hat.calls", "count", "wall_s on verify-all"),
    ("genera.a_hat.busy_s", "s", "wall_s on verify-all"),
    ("genera.l_class.calls", "count", "wall_s on verify-all"),
    ("genera.l_class.busy_s", "s", "wall_s on verify-all"),
    ("witten.theta_bundle.calls", "count",
     "wall_s on verify-all and sweep-m4 (build-once memo)"),
    ("witten.theta_bundle.busy_s", "s", "wall_s on verify-all and sweep-m4"),
    ("witten.theta_bundle.reuse", "ratio",
     "distinct (kind, profile) / calls; wall_s on verify-all and sweep-m4"),
    ("modforms.modular_basis.calls", "count", "wall_s on verify-all"),
    ("modforms.modular_basis.reuse", "ratio",
     "distinct weights / calls; wall_s on verify-all"),
    ("modforms.decompose_theta2.calls", "count", "wall_s on verify-all"),
    ("modforms.decompose_theta2.busy_s", "s", "wall_s on verify-all"),
    ("modforms.basis_decompose.busy_s", "s", "wall_s on verify-all"),
    ("anomaly.decomposition.busy_s", "s", "share of wall_s on verify-all and sweep-m4"),
    ("anomaly.main.busy_s", "s", "share of wall_s on verify-all and sweep-m4"),
    ("anomaly.routes.busy_s", "s", "share of wall_s on verify-all and routes-m3"),
    ("anomaly.agw.busy_s", "s", "share of wall_s on verify-all"),
    ("anomaly.corollary.busy_s", "s", "share of wall_s on verify-all"),
    ("anomaly.p_form.calls", "count", "wall_s on verify-all, sweep-m4 and routes-m3"),
    ("anomaly.theta_quotient.self_s", "s", "wall_s on routes-m3"),
    ("thetanum.theta_eval.calls", "count",
     "wall_s on numeric-laws; zero on sweep-m4 and routes-m3"),
    ("thetanum.theta_eval.self_s", "s", "wall_s on numeric-laws"),
    ("thetanum.check.busy_s", "s", "wall_s on numeric-laws"),
    ("cli.verify.busy_s", "s", "wall_s on verify-all only"),
    ("cli.render.busy_s", "s", "wall_s on verify-all only"),
    ("cli.report_bytes", "bytes", "wall_s and peak_rss_mb on verify-all only"),
    ("trace.overhead_s", "s", "traced wall_s minus untraced wall_s, same run"),
)
