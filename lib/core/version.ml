let current = "1.11.0"
