package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.Celf
import repro.core.{KSirEngine, MTTD}

/** §5.3 efficiency and scalability — the headline claims behind Figures
  * 7–14, reproduced as tables (figures are out of scope):
  *  - MTTS / MTTD are clearly faster than CELF and SieveStreaming (paper:
  *    up to 124× / 390× at n_t ~10⁵⁺; see EXPERIMENTS.md for the scale
  *    discussion) with ≥95% / ≥99% of CELF's quality at ε=0.1;
  *  - they prune the vast majority of evaluations (Figure 11);
  *  - quality degrades gracefully with ε (Figures 7–8) and query time grows
  *    with k (Figures 9–10);
  *  - ranked-list update time per element is well under 0.3 ms (Figure 14).
  */
class EfficiencyBench extends AnyFunSuite {

  private val NQueries = 25

  test("query time and quality, k=10, ε=0.1 (Figures 9-10 defaults)") {
    val runs = BenchData.all.map(ds => (ds, Tables.efficiency(ds, BenchData.DefaultK, BenchData.Epsilon, NQueries)))
    val rows = runs.flatMap { case (ds, (acc, totalActive)) =>
      val celf = acc("CELF")
      Tables.EffMethods.map { m =>
        val a = acc(m)
        Seq(ds.name, m, f"${a.ms / NQueries}%.2f", f"${celf.ms / a.ms}%.1fx",
          f"${a.score / celf.score}%.4f", f"${a.evaluated.toDouble / totalActive * 100}%.1f%%")
      }
    }
    BenchData.printTable(
      s"Efficiency (k=10, ε=0.1, $NQueries queries/dataset; paper: MTTS ≤124x, MTTD ≤390x speedup, ≥95%/99% quality, ≤2% evaluated)",
      Seq("dataset", "method", "ms/query", "speedup vs CELF", "quality vs CELF", "evaluated"),
      rows,
    )

    runs.foreach { case (ds, (acc, totalActive)) =>
      val celf = acc("CELF")
      // Shape: MTTS/MTTD clearly faster than both index-free baselines.
      // The paper's gap is 1–2 orders of magnitude at n_t ~10⁵–10⁶, where
      // CELF's full from-scratch scan dominates; at our n_t ~5·10³ the
      // crossover is much closer for MTTS (its per-element cost carries the
      // O(log k / ε) candidate factor), so require ≥1.3× for MTTS and ≥4×
      // for MTTD, and rely on the pruning assertion for the asymptotic
      // story. See EXPERIMENTS.md for the scale discussion.
      assert(acc("MTTS").ms * 1.3 <= celf.ms, s"${ds.name}: MTTS ${acc("MTTS").ms} vs CELF ${celf.ms}")
      assert(acc("MTTD").ms * 4 <= celf.ms, s"${ds.name}: MTTD ${acc("MTTD").ms} vs CELF ${celf.ms}")
      Seq("MTTS", "MTTD").foreach { m =>
        assert(acc(m).ms * 1.3 <= acc("Sieve").ms, s"${ds.name}: $m vs Sieve ${acc("Sieve").ms}")
        assert(acc(m).evaluated.toDouble / totalActive < 0.2,
          s"${ds.name}: $m evaluated ${acc(m).evaluated} of $totalActive")
      }
      assert(acc("MTTS").score >= 0.93 * celf.score, s"${ds.name}: MTTS quality")
      assert(acc("MTTD").score >= 0.97 * celf.score, s"${ds.name}: MTTD quality")
      assert(acc("Top-k Rep").score <= acc("MTTD").score, s"${ds.name}: Top-k Rep should trail")
    }
  }

  test("effect of k (Figure 9-11 trend): evaluated fraction grows with k") {
    val ds = BenchData.aminer
    val rows = Seq(5, 15, 25).map { k =>
      val (acc, totalActive) = Tables.efficiency(ds, k, BenchData.Epsilon, 10)
      Seq(k.toString,
        f"${acc("MTTS").ms / 10}%.2f", f"${acc("MTTD").ms / 10}%.2f",
        f"${acc("CELF").ms / 10}%.2f",
        f"${acc("MTTS").evaluated.toDouble / totalActive * 100}%.1f%%",
        f"${acc("MTTD").score / acc("CELF").score}%.4f")
    }
    // Evaluated fraction grows with k (near-linearly per Figure 11); the
    // identical workload is used for every k, small tolerance for the
    // Φ-range interaction at large k.
    val fracs = rows.map(_(4).dropRight(1).toDouble)
    assert(fracs(0) <= fracs(1) * 1.05 && fracs(1) <= fracs(2) * 1.05, s"fractions $fracs not increasing")
    BenchData.printTable(
      "Effect of k on aminer (Figures 9-11 trend)",
      Seq("k", "MTTS ms", "MTTD ms", "CELF ms", "MTTS evaluated", "MTTD/CELF quality"),
      rows,
    )
  }

  test("effect of ε (Figures 7-8 trend): quality within 5% of CELF even at ε=0.5") {
    val ds = BenchData.reddit
    val rows = Seq(0.1, 0.3, 0.5).map { eps =>
      val (acc, _) = Tables.efficiency(ds, BenchData.DefaultK, eps, 10)
      val mttsQ = acc("MTTS").score / acc("CELF").score
      val mttdQ = acc("MTTD").score / acc("CELF").score
      // Paper: ≤5% loss vs CELF even at ε=0.5; allow ≤10% at our much
      // smaller query sample (10 vs the paper's 10K) — still far above the
      // (1 − 1/e − ε) guarantee.
      assert(mttsQ >= 0.90, s"eps=$eps MTTS quality $mttsQ")
      assert(mttdQ >= 0.90, s"eps=$eps MTTD quality $mttdQ")
      Seq(eps.toString, f"${acc("MTTS").ms / 10}%.2f", f"${acc("MTTD").ms / 10}%.2f",
        f"$mttsQ%.4f", f"$mttdQ%.4f")
    }
    BenchData.printTable(
      "Effect of ε on reddit (paper: ≤5% loss at ε=0.5)",
      Seq("ε", "MTTS ms", "MTTD ms", "MTTS quality", "MTTD quality"),
      rows,
    )
  }

  test("ranked-list update time per element (Figure 14: < 0.3 ms in the paper)") {
    val rows = BenchData.all.map { ds =>
      val eng = new KSirEngine(ds.gen.model, BenchData.WindowT, BenchData.Lambda, ds.eta)
      val t0 = System.nanoTime()
      ds.buckets.foreach(eng.advance)
      val totalMs = (System.nanoTime() - t0) / 1e6
      val perElem = totalMs / ds.gen.elements.size
      assert(perElem < 5.0, s"${ds.name}: ${perElem}ms per element")
      Seq(ds.name, f"$totalMs%.0f", f"$perElem%.4f", "< 0.3 (paper, Xeon @1.9GHz)")
    }
    BenchData.printTable(
      "Ranked-list maintenance (Figure 14 claim)",
      Seq("dataset", "total ms", "ms/element", "paper"),
      rows,
    )
  }

  test("effect of window length T (Figure 13 trend): more active elements, slower queries") {
    val ds = BenchData.twitter
    val rows = Seq(6L, 24L).map { hours =>
      val window = hours * 3600
      val engine = new KSirEngine(ds.gen.model, window, BenchData.Lambda, ds.eta)
      ds.buckets.takeWhile(_.endTs <= BenchData.SpanSeconds * 2 / 3).foreach(engine.advance)
      val queries = BenchData.workload(ds, 10, seed = 777L)
      var celfMs = 0.0
      var mttdMs = 0.0
      queries.foreach { wq =>
        celfMs += Tables.timeMs(Celf.query(engine, wq.vector, BenchData.DefaultK))._2
        mttdMs += Tables.timeMs(MTTD.query(engine, wq.vector, BenchData.DefaultK, BenchData.Epsilon))._2
      }
      (engine.activeCount, hours, celfMs / 10, mttdMs / 10)
    }.map { case (active, hours, celf, mttd) =>
      Seq(s"${hours}h", active.toString, f"$celf%.2f", f"$mttd%.2f")
    }
    BenchData.printTable(
      "Effect of T on twitter (Figure 13 trend)",
      Seq("T", "active elements", "CELF ms", "MTTD ms"),
      rows,
    )
  }
}
