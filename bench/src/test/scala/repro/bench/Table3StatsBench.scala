package repro.bench

import repro.SparkSpec

/** Table 3 — dataset statistics (see [[Tables.table3]]), computed with the
  * Spark aggregation over the synthetic streams, next to the paper's
  * crawled-corpus numbers. Absolute sizes are scaled down by design
  * (DESIGN.md §5); the preserved quantities are average document length and
  * average references.
  */
class Table3StatsBench extends SparkSpec {

  // (paper elements, paper vocab (post-clean), paper avg length (post-clean), paper avg refs)
  private val paper = Map(
    "aminer" -> ("1.66M", "71K", 49.2, 3.68),
    "reddit" -> ("20.2M", "88K", 8.6, 0.85),
    "twitter" -> ("14.8M", "68K", 5.1, 0.62),
  )

  test("Table 3: synthetic dataset statistics vs paper") {
    val stats = Tables.table3(spark)
    BenchData.printTable(
      "Table 3: dataset statistics (ours vs paper)",
      Seq("dataset", "elements", "paper-elems", "vocab", "paper-vocab",
        "avg-len", "paper-len", "avg-refs", "paper-refs"),
      stats.map { s =>
        val (pElems, pVocab, pLen, pRefs) = paper(s.name)
        Seq(s.name, s.elements.toString, pElems, s.vocab.toString, pVocab,
          f"${s.avgLen}%.1f", f"$pLen%.1f", f"${s.avgRefs}%.2f", f"$pRefs%.2f")
      },
    )
    stats.foreach { s =>
      val (_, _, pLen, pRefs) = paper(s.name)
      assert(math.abs(s.avgLen - pLen) < pLen * 0.15, s"${s.name} avg length ${s.avgLen} vs paper $pLen")
      assert(math.abs(s.avgRefs - pRefs) < pRefs * 0.35, s"${s.name} avg refs ${s.avgRefs} vs paper $pRefs")
    }
  }
}
