let current = "1.26.0"
