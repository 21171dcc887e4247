package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Element, TopicModel}

/** DataFrame formulations of the paper's per-element scores: a relational
  * rendering of the same math, kept as a reference that the tests check
  * against an independent DuckDB SQL derivation and against
  * [[repro.core.KSirEngine]]'s R_i(e), I_{i,t}(e) and δ_i(e).
  *
  * Inputs are exploded relational views of a stream:
  *  - `elemWords(elem, word, freq)`   — γ(w,e), from [[wordsDF]]
  *  - `elemTopics(elem, topic, p)`    — p_i(e), from [[topicsDF]]
  *  - `topicWords(topic, word, p)`    — p_i(w), from [[topicWordDF]]
  *  - `references(child, parent, childTs)`
  */
object BatchScoring {

  /** Exploded (element, word, freq) view. */
  def wordsDF(spark: SparkSession, elements: Seq[Element]): DataFrame = {
    import spark.implicits._
    elements.flatMap(e => e.wordFreqs.toSeq.map { case (w, f) => (e.id, w, f.toInt) }).toDF("elem", "word", "freq")
  }

  /** Exploded (element, topic, p) view. */
  def topicsDF(spark: SparkSession, elements: Seq[Element]): DataFrame = {
    import spark.implicits._
    elements.flatMap(e => e.topics.toSeq.map { case (t, p) => (e.id, t, p) }).toDF("elem", "topic", "p")
  }

  /** Exploded (topic, word, p) view of a topic model (only p > 0 rows for the
    * words present in the given vocabulary slice).
    */
  def topicWordDF(spark: SparkSession, model: TopicModel, words: Set[Int]): DataFrame = {
    import spark.implicits._
    (0 until model.z)
      .flatMap(i => words.toSeq.sorted.map(w => (i, w, model.pWord(i, w))))
      .filter(_._3 > 0)
      .toDF("topic", "word", "p")
  }

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
}
