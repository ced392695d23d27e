"""Coverage-driven test stimulus generation harness.

Three behavioral designs under test (a stride-pattern detector, an RV32I
decoder subset, and a small RV32I CPU) are driven by a constrained-random
baseline agent or by a chat-completion LLM agent with coverage-feedback
prompting, whose backend is a live server or a replayed script.
"""

__version__ = "0.1.0"
