package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** DataFrame formulations of the paper's per-element scores: a relational
  * rendering of the same math, checked in the tests against an independent
  * DuckDB SQL derivation and against [[repro.core.KSirEngine]]'s R_i(e) and
  * I_{i,t}(e).
  *
  * Inputs are the exploded relational views produced by
  * [[repro.data.SocialStreamGen]]:
  *  - `elemWords(elem, word, freq)`   — γ(w,e)
  *  - `elemTopics(elem, topic, p)`    — p_i(e)
  *  - `topicWords(topic, word, p)`    — p_i(w)
  *  - `references(child, parent, childTs)`
  */
object BatchScoring {

  /** σ_i(w,e) = −γ(w,e)·p_i(w,e)·log p_i(w,e) with p_i(w,e) = p_i(w)·p_i(e),
    * for every (element, topic, word) with positive probability.
    */
  def sigma(elemWords: DataFrame, elemTopics: DataFrame, topicWords: DataFrame): DataFrame = {
    elemWords
      .join(elemTopics, "elem")
      .join(topicWords.withColumnRenamed("p", "pw"), Seq("topic", "word"))
      .where(col("p") > 0 && col("pw") > 0)
      .select(
        col("elem"), col("topic"), col("word"),
        (-col("freq") * col("pw") * col("p") * log(col("pw") * col("p"))) as "sigma",
      )
  }

  /** R_i(e) = Σ_{w ∈ V_e} σ_i(w,e) (Equation 3 for the singleton). */
  def semanticScores(elemWords: DataFrame, elemTopics: DataFrame, topicWords: DataFrame): DataFrame =
    sigma(elemWords, elemTopics, topicWords)
      .groupBy("elem", "topic")
      .agg(sum("sigma") as "r_score")

  /** Singleton influence I_{i,t}(e) = Σ_{c ∈ I_t(e)} p_i(e)·p_i(c) over the
    * references whose child is inside the window [wStart, wEnd].
    */
  def singletonInfluence(
      references: DataFrame,
      elemTopics: DataFrame,
      wStart: Long,
      wEnd: Long,
  ): DataFrame = {
    val inWindow = references.where(col("childTs").between(wStart, wEnd))
    val parentT = elemTopics.select(col("elem") as "parent", col("topic"), col("p") as "pp")
    val childT = elemTopics.select(col("elem") as "child", col("topic"), col("p") as "pc")
    inWindow
      .join(parentT, "parent")
      .join(childT, Seq("child", "topic"))
      .groupBy(col("parent") as "elem", col("topic"))
      .agg(sum(col("pp") * col("pc")) as "i_score")
  }

  /** δ_i(e) = λ·R_i(e) + (1−λ)/η·I_{i,t}(e): the ranked-list entry scores. */
  def deltaScores(semantic: DataFrame, influence: DataFrame, lambda: Double, eta: Double): DataFrame =
    semantic
      .join(influence, Seq("elem", "topic"), "full_outer")
      .na.fill(0.0, Seq("r_score", "i_score"))
      .select(
        col("elem"), col("topic"),
        (lit(lambda) * col("r_score") + lit((1 - lambda) / eta) * col("i_score")) as "delta",
      )

  /** Top-n ranked-list prefix per topic, the batch rendering of RL_i. */
  def topPerTopic(delta: DataFrame, n: Int): DataFrame = {
    val w = Window.partitionBy("topic").orderBy(col("delta").desc, col("elem").desc)
    delta
      .withColumn("rank", row_number().over(w))
      .where(col("rank") <= n)
      .select("topic", "rank", "elem", "delta")
  }

  /** Table 3 statistics of a stream DataFrame (id, ts, words, refs, topics):
    * element count, distinct vocabulary, average document length, average
    * references per element.
    */
  def datasetStats(stream: DataFrame): DataFrame =
    stream
      .select(
        lit(1) as "one",
        size(col("words")) as "len",
        size(col("refs")) as "nrefs",
        col("words"),
      )
      .agg(
        sum("one") as "elements",
        size(array_distinct(flatten(collect_list(col("words"))))) as "vocab",
        avg("len") as "avg_length",
        avg("nrefs") as "avg_refs",
      )
}
