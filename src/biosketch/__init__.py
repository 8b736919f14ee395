"""Multibiometric template protection.

Feature-level fusion of face and iris embeddings, median binarization with
user-specific reliable-component keys, and Reed-Solomon secure-sketch /
fuzzy-commitment templates, plus the GAR-security evaluation harness.

The package namespace is empty: import each name from the module that
defines it.

- ``fusion``: ``FusionWeights``, ``random_weights``, ``save_weights``,
  ``load_weights``, ``fuse_rows``
- ``quantizer``: ``ReliableKey``, ``population_stats``, ``user_stats``,
  ``select_reliable``, ``binarize``, ``extract``
- ``rs``: ``RsCode``, ``DecodePolicy``, ``DecodeStatus``, ``bits_to_symbols``
- ``gf``: ``Field``, the tables ``RsCode`` computes with
- ``sketch``: ``SketchParams``, ``EnrollmentRecord``, ``enroll_batch``,
  ``authenticate_batch``, ``authenticate``, ``hash_sketch``
- ``store``: ``TemplateDb``, ``KeyStore``, ``revoke``
- ``pipeline``: ``PipelineConfig``, ``enroll_vectors``, ``probe_bits``,
  ``select_template``
- ``evaluate``: ``run_gs_curve``, ``gar_stats``, ``empirical_far``,
  ``far_analytic``, ``params_for_security``
- ``synth``: ``EmbeddingDataset``, ``gen_population``, ``read_embeddings``,
  ``write_embeddings``
- ``textfile``: ``to_text``, ``from_text``, the line grammar of the record
  and key files
- ``errors``: ``BiosketchError`` and its subclasses
- ``cli``: the ``biosketch`` command
"""
